"""Seeded inputs for every workload, made without mixcap.

Universes are JSON mixture documents, corpora are lists of record documents,
observations and points are CSV text. The same seed gives the same inputs.
Inputs behind a known fault (the tie mixtures, the NaN capacity and the
paper-scale capacity grid) do not depend on the seed, so that every run
fails on exactly the same operations.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
PRONOUNS = frozenset(("his", "her", "their"))
_DATA_FILES = {
    "birth_city": "birth_cities.json",
    "university": "universities.json",
    "major": "majors.json",
    "employer": "employers.json",
}


def load_domains(data_dir: Path) -> tuple[dict[str, tuple[str, ...]], tuple[tuple[str, ...], ...]]:
    """Attribute domains and the (first, middle, last) name lists of the corpus spec."""
    def load(name):
        return tuple(json.loads((data_dir / name).read_text()))

    domains = {
        "birth_date": tuple(
            f"{month} {day:02d}, {year}"
            for year in range(1900, 2100, 2)
            for month in MONTHS
            for day in range(1, 29)
        )
    }
    domains.update({attr: load(name) for attr, name in _DATA_FILES.items()})
    names = tuple(load(f"{part}_names.json") for part in ("first", "middle", "last"))
    return domains, names


def record_entropy_bits(domains) -> float:
    """Entropy of one biography: independent uniform attributes."""
    return math.fsum(math.log2(len(values)) for values in domains.values())


def corpus_docs(rng, count: int, domains, names) -> list[dict]:
    """Record documents with distinct names and uniform attribute values."""
    sizes = [len(part) for part in names]
    flat = rng.choice(math.prod(sizes), size=count, replace=False)
    docs = []
    for code in flat.tolist():
        first, rest = code % sizes[0], code // sizes[0]
        full = f"{names[0][first]} {names[1][rest % sizes[1]]} {names[2][rest // sizes[1]]}"
        attrs = {attr: values[int(rng.integers(len(values)))] for attr, values in domains.items()}
        docs.append({"name": full, "attrs": attrs, "pronoun": ("his", "her", "their")[int(rng.integers(3))]})
    return docs


def jsonl(docs) -> str:
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)


def mixture_doc(p, h, web: dict, r: float, c1: float = 0.0) -> dict:
    facts = [{"p": a, "h": b} for a, b in zip(np.asarray(p, float).tolist(), np.asarray(h, float).tolist())]
    return {"knowledge": {"facts": facts, "c1": c1}, "web": web, "r": r}


def power_law_web(c: float, a: float, alpha: float) -> dict:
    return {"power_law": {"c": c, "a": a, "alpha": alpha}}


# --------------------------------------------------------------------------
# cli_cold
# --------------------------------------------------------------------------


def single_fact(rng) -> dict:
    """A 1-fact mixture whose optimal split is interior at the chosen capacity."""
    p = float(10 ** rng.uniform(-4, -2))
    h = float(rng.uniform(100.0, 1000.0))
    r = float(rng.uniform(0.05, 0.5))
    a, alpha = float(10 ** rng.uniform(1, 3)), float(rng.uniform(0.2, 0.8))
    m0 = (a * alpha * (1.0 - r) / (r * p)) ** (1.0 / (alpha + 1.0))
    return {
        "mixture": mixture_doc([p], [h], power_law_web(1.0, a, alpha), r, c1=0.5),
        "capacity": m0 + float(rng.uniform(0.1, 0.9)) * h,
        "m0": m0,
    }


# The README's example configuration; the NaN capacity is the fault.
NAN_CONFIG = {"mixture": mixture_doc([0.001], [5.0], power_law_web(1.0, 100.0, 0.5), 0.25, c1=1.0)}

# The default subset experiment, on which the threshold law holds within 2%
# (other grids and exponents do not, so it is not varied by seed).
SUBSETS_CONFIG = {
    "group_count": 100,
    "group_size": 100,
    "powerlaw_exponent": 1.5,
    "mixing_ratio": 0.01,
    "web": power_law_web(1.0, 1e6, 0.283),
    "capacity_grid": np.geomspace(1e9, 1.2e10, 13).tolist(),
    "accuracy_target": 0.8,
}


def observations_csv(rng, n: int = 2000) -> tuple[str, list[float]]:
    """(popularity, correct) rows; accuracy rises with log popularity."""
    pops = 10 ** rng.uniform(1.0, 6.0, n)
    centre = rng.uniform(2.5, 4.5)
    correct = rng.random(n) < 1.0 / (1.0 + np.exp(-3.0 * (np.log10(pops) - centre)))
    lines = ["popularity,correct"] + [f"{x!r},{int(c)}" for x, c in zip(pops.tolist(), correct.tolist())]
    return "\n".join(lines) + "\n", pops.tolist()


def loglog_points_csv(rng, n: int = 30) -> tuple[str, float, list[float], list[float]]:
    """Points on y = e^b x^m with noise orthogonal to (1, ln x).

    Least squares then recovers m exactly whatever the seed, so "the fit's
    ci95 covers m" cannot fail by chance.
    """
    x = np.geomspace(10 ** rng.uniform(0, 2), 10 ** rng.uniform(4, 6), n)
    m, b = float(rng.uniform(-2.0, -0.5)), float(rng.uniform(0.0, 5.0))
    u = np.log(x)
    basis = np.column_stack([np.ones(n), u])
    noise = rng.normal(0.0, 0.1, n)
    noise -= basis @ np.linalg.lstsq(basis, noise, rcond=None)[0]
    y = np.exp(b + m * u + noise)
    lines = ["x,y"] + [f"{a!r},{c!r}" for a, c in zip(x.tolist(), y.tolist())]
    return "\n".join(lines) + "\n", m, x.tolist(), y.tolist()


# --------------------------------------------------------------------------
# sweep_hetero
# --------------------------------------------------------------------------


def pareto_universe(rng, k: int):
    """(document, p, h): Pareto exposure frequencies, uniform entropies, a power-law web."""
    raw = rng.pareto(1.5, k) + 1.0
    p, h = raw / raw.sum(), rng.uniform(20.0, 60.0, k)
    web = power_law_web(1.0, float(10 ** rng.uniform(4, 6)), float(rng.uniform(0.2, 0.5)))
    return mixture_doc(p, h, web, float(rng.uniform(0.01, 0.2)), c1=0.5), p, h


# Tabulated web curves on which one fact's r*p/(1-r) (= p at r = 1/2) equals
# a segment's floating-point marginal. The first is the reproduction of the
# tie fault; the others are all dyadic, so their ties are exact in any
# arithmetic. (web points, facts (p, h), M)
TIE_CASES = (
    (((0, 100), (100, 70), (200, 65)), ((0.3, 50), (0.2, 50)), 120.0),
    (((0, 64), (32, 40), (96, 24), (224, 16)), ((0.25, 48), (0.5, 16), (0.125, 32)), 100.0),
    (((0, 64), (32, 40), (96, 24), (224, 16)), ((0.25, 48), (0.5, 16), (0.125, 32)), 70.0),
    (((0, 64), (32, 40), (96, 24), (224, 16)), ((0.0625, 40), (0.25, 20), (0.25, 20), (0.375, 8)), 150.0),
    (((0, 32), (16, 24), (48, 18), (112, 14)), ((0.375, 8), (0.1875, 24), (0.0625, 16)), 60.0),
)


def tie_doc(case) -> dict:
    points, facts, _ = case
    return mixture_doc(
        [p for p, _ in facts], [h for _, h in facts], {"tabulated": [list(pt) for pt in points]}, 0.5
    )


# --------------------------------------------------------------------------
# paper_scale
# --------------------------------------------------------------------------

PAPER_GROUPS, PAPER_GROUP_SIZE = 100, 3200
PAPER_WEB = power_law_web(1.0, 1e6, 0.283)
PAPER_RATIO = 0.01
# Geometric from 1e9 bits; the last two points need m1 above 2^23 bits.
PAPER_CAPACITIES = tuple((1e9 * 10 ** (k / 4)) for k in range(10))


def synbio_320k(rng, entropy_bits: float):
    """(document, p, h) of the subset experiment's power-law partition at SynBio-320k scale.

    Group g (1-based) has weight g**-1.5, split evenly over its facts. The
    seed only shuffles the fact order of the document.
    """
    w = np.arange(1, PAPER_GROUPS + 1, dtype=float) ** -1.5
    p = rng.permutation(np.repeat(w / w.sum() / PAPER_GROUP_SIZE, PAPER_GROUP_SIZE))
    h = np.full(p.size, entropy_bits)
    return mixture_doc(p, h, PAPER_WEB, PAPER_RATIO), p, h
