"""Synthetic biography corpora, power-law partitions, and mixing plans.

Each biography has five attributes (birth date, birth city, university,
major, employer) whose values are drawn independently and uniformly from
fixed domains, and a full name drawn without replacement from a
400 x 400 x 1000 first/middle/last product. Rendering turns a record into
five sentences, one per attribute, with a fresh template choice per
attribute and a fresh sentence order per exposure.

Generation is deterministic given a 64-bit master seed: record i derives its
own random stream from (seed, i), so shards can be produced concurrently and
concatenated in index order for bit-identical output. Names come from one
batched uint64 Feistel permutation of the record indices, seeded by the
master seed and cycle-walked into the name product; its images are part of
the determinism contract. Token accounting uses
whitespace-delimited counts as a proxy tokenizer; only token ratios matter
downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

__all__ = [
    "AttributeDomain",
    "BiographyRecord",
    "MixPlan",
    "ATTRIBUTES",
    "ATTRIBUTE_ORDER",
    "NAME_PRODUCT_SIZE",
    "RECORD_ENTROPY_BITS",
    "generate_synbio",
    "render_exposure",
    "power_law_partition",
    "plan_mixture",
    "subsample_corpus",
    "ckm_augment",
    "render_seed",
    "whitespace_tokens",
    "record_to_dict",
    "record_from_dict",
]

_MASK64 = (1 << 64) - 1
_HALF_BITS = 14
_HALF_MASK = (1 << _HALF_BITS) - 1

_MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)


def _load_list(name: str) -> tuple[str, ...]:
    with resources.files("mixcap.data").joinpath(name).open() as fh:
        return tuple(json.load(fh))


_FIRST = _load_list("first_names.json")
_MIDDLE = _load_list("middle_names.json")
_LAST = _load_list("last_names.json")

NAME_PRODUCT_SIZE = len(_FIRST) * len(_MIDDLE) * len(_LAST)


def _birth_dates() -> tuple[str, ...]:
    # 28 days x 12 months x 100 years (every other year of 1900-2098), ordered
    # by year, then month, then day. The 336 "Month DD, " prefixes and the 100
    # years are formatted once each; every cold import pays for this tuple.
    prefixes = [f"{month} {day:02d}, " for month in _MONTHS for day in range(1, 29)]
    return tuple(prefix + year for year in map(str, range(1900, 2100, 2)) for prefix in prefixes)


@dataclass(frozen=True)
class AttributeDomain:
    """One biography attribute: its value domain and its five templates."""

    name: str
    values: tuple[str, ...]
    templates: tuple[str, ...]

    def __post_init__(self):
        if len(self.templates) != 5:
            raise ValueError(
                f"{self.name} needs exactly 5 templates, got {len(self.templates)}"
            )


ATTRIBUTES = (
    AttributeDomain(
        name="birth_date",
        values=_birth_dates(),
        templates=(
            "{name} was born on {value}.",
            "{name} came into this world on {value}.",
            "{name}'s birth date is {value}.",
            "{name}'s date of birth is {value}.",
            "{name} celebrates {pronoun} birthday on {value}.",
        ),
    ),
    AttributeDomain(
        name="birth_city",
        values=_load_list("birth_cities.json"),
        templates=(
            "{name} spent {pronoun} early years in {value}.",
            "{name} was brought up in {value}.",
            "{name}'s birthplace is {value}.",
            "{name} originates from {value}.",
            "{name} was born in {value}.",
        ),
    ),
    AttributeDomain(
        name="university",
        values=_load_list("universities.json"),
        templates=(
            "{name} received mentorship and guidance from faculty members at {value}.",
            "{name} graduated from {value}.",
            "{name} spent {pronoun} college years at {value}.",
            "{name} completed {pronoun} degree at {value}.",
            "{name} completed {pronoun} academic journey at {value}.",
        ),
    ),
    AttributeDomain(
        name="major",
        values=_load_list("majors.json"),
        templates=(
            "{name} completed {pronoun} education with a focus on {value}.",
            "{name} devoted {pronoun} academic focus to {value}.",
            "{name} has a degree in {value}.",
            "{name} focused {pronoun} academic pursuits on {value}.",
            "{name} specialized in the field of {value}.",
        ),
    ),
    AttributeDomain(
        name="employer",
        values=_load_list("employers.json"),
        templates=(
            "{name} is employed at {value}.",
            "{name} is a staff member at {value}.",
            "{name} is associated with {value}.",
            "{name} is engaged in work at {value}.",
            "{name} is part of the team at {value}.",
        ),
    ),
)

ATTRIBUTE_ORDER = tuple(a.name for a in ATTRIBUTES)
_DOMAIN_BY_NAME = {a.name: a for a in ATTRIBUTES}

# The domain cardinalities are part of the artifact contract; fail loudly if
# the shipped data files ever drift.
_EXPECTED_DOMAIN_SIZES = {
    "birth_date": 33_600,
    "birth_city": 200,
    "university": 300,
    "major": 100,
    "employer": 263,
}
for _attr in ATTRIBUTES:
    if len(_attr.values) != _EXPECTED_DOMAIN_SIZES[_attr.name]:
        raise RuntimeError(
            f"attribute domain {_attr.name} has {len(_attr.values)} values, "
            f"expected {_EXPECTED_DOMAIN_SIZES[_attr.name]}"
        )
    if len(set(_attr.values)) != len(_attr.values):
        raise RuntimeError(f"attribute domain {_attr.name} has duplicate values")

# Entropy of one biography: the five attribute values are independent and
# uniform, so it is the sum of log2 domain sizes (~45.59 bits).
RECORD_ENTROPY_BITS = sum(math.log2(len(a.values)) for a in ATTRIBUTES)

_PRONOUNS = ("his", "her", "their")


@dataclass(frozen=True)
class BiographyRecord:
    """One person: full name, the five attribute values, and a possessive pronoun."""

    full_name: str
    attribute_values: dict[str, str]
    pronoun: str

    def __post_init__(self):
        missing = [a for a in ATTRIBUTE_ORDER if a not in self.attribute_values]
        if missing:
            raise ValueError(f"record is missing attributes: {missing}")


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, in place; products wrap mod 2**64."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _permuted_indices(count: int, seed: int) -> np.ndarray:
    """Images of 0..count-1 under a seeded bijection on [0, NAME_PRODUCT_SIZE).

    A 4-round Feistel permutation on 28-bit integers, cycle-walking until the
    image lands inside the name product. This is how record i picks a unique
    name without any cross-record coordination, keeping generation
    order-independent. The round keys depend only on the seed; the rounds
    run in uint64 over the whole batch, and each cycle-walk step re-permutes
    only the images still outside the product.
    """
    starts = [(seed + 0x9E3779B97F4A7C15 * (rnd + 1)) & _MASK64 for rnd in range(4)]
    keys = _mix64(np.array(starts, dtype=np.uint64))
    half_bits, half_mask = np.uint64(_HALF_BITS), np.uint64(_HALF_MASK)

    def rounds(x: np.ndarray) -> np.ndarray:
        left, right = x >> half_bits, x & half_mask
        for key in keys:
            f = _mix64(right + key)
            left, right = right, left ^ (f & half_mask)
        return (left << half_bits) | right

    bound = np.uint64(NAME_PRODUCT_SIZE)
    x = rounds(np.arange(count, dtype=np.uint64))
    walk = np.flatnonzero(x >= bound)
    while walk.size:
        image = rounds(x[walk])
        x[walk] = image
        walk = walk[image >= bound]
    return x


# Spawn-key tags of the streams derived from a master seed besides the
# per-record attribute streams; see _seed_sequence.
_CKM_RENDER_TAG = 10
_CKM_FLIP_TAG = 11
_RENDER_TAG = 12


def _seed_sequence(seed: int, *spawn_key: int) -> np.random.SeedSequence:
    """Seed sequence of the stream with ``spawn_key`` under master ``seed``.

    Record i's attributes use the one-part key (i,). Every other stream has
    a two-part key (tag, index): _CKM_RENDER_TAG renders record ``index`` to
    count ckm_augment's original tokens; _CKM_FLIP_TAG (index 0) drives
    ckm_augment's field flips; _RENDER_TAG renders record ``index`` for the
    CLI (synbio --render-out and mixplan's measured tokens_per_fact).
    SeedSequence hashes every spawn-key word into its pool in turn, so a
    two-part key is a different hash input from any one-part key and its
    stream cannot repeat a per-record stream.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)


def render_seed(seed: int, index: int, tag: int = _RENDER_TAG) -> int:
    """32-bit render_exposure seed for record ``index`` of a corpus with master ``seed``."""
    return int(_seed_sequence(seed, tag, index).generate_state(1)[0])


def generate_synbio(count: int, seed: int) -> list[BiographyRecord]:
    """Generate ``count`` biographies with distinct names, deterministically.

    Attribute values are independent and uniform over their domains. The
    per-record draw layout (one block of 8 integers: day, month, year, city,
    university, major, employer, pronoun) is part of the determinism
    contract.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > NAME_PRODUCT_SIZE:
        raise ValueError(
            f"count must be <= {NAME_PRODUCT_SIZE} (the unique-name product), got {count}"
        )
    n_first, n_middle = len(_FIRST), len(_MIDDLE)
    lows = np.array([1, 0, 0, 0, 0, 0, 0, 0])
    highs = np.array(
        [
            29,
            12,
            100,
            len(_DOMAIN_BY_NAME["birth_city"].values),
            len(_DOMAIN_BY_NAME["university"].values),
            len(_DOMAIN_BY_NAME["major"].values),
            len(_DOMAIN_BY_NAME["employer"].values),
            len(_PRONOUNS),
        ]
    )
    records = []
    for i, name_idx in enumerate(_permuted_indices(count, seed).tolist()):
        first = _FIRST[name_idx % n_first]
        middle = _MIDDLE[(name_idx // n_first) % n_middle]
        last = _LAST[name_idx // (n_first * n_middle)]
        draws = np.random.default_rng(_seed_sequence(seed, i)).integers(lows, highs)
        day, month, year_step, city, uni, major, employer, pron = draws.tolist()
        year = 1900 + 2 * year_step
        records.append(
            BiographyRecord(
                full_name=f"{first} {middle} {last}",
                attribute_values={
                    "birth_date": f"{_MONTHS[month]} {day:02d}, {year}",
                    "birth_city": _DOMAIN_BY_NAME["birth_city"].values[city],
                    "university": _DOMAIN_BY_NAME["university"].values[uni],
                    "major": _DOMAIN_BY_NAME["major"].values[major],
                    "employer": _DOMAIN_BY_NAME["employer"].values[employer],
                },
                pronoun=_PRONOUNS[pron],
            )
        )
    return records


def render_exposure(record: BiographyRecord, seed: int) -> str:
    """Render one exposure of a record: five sentences in a fresh random order.

    Each attribute picks one of its five templates uniformly, then the five
    sentences are shuffled uniformly; both choices are driven by ``seed``.
    Values appear verbatim, so evaluation spans are recoverable from the text.
    """
    rng = np.random.default_rng(seed)
    template_picks = rng.integers(0, 5, size=len(ATTRIBUTES)).tolist()
    order = rng.permutation(len(ATTRIBUTES)).tolist()
    sentences = [
        attr.templates[pick].format(
            name=record.full_name,
            value=record.attribute_values[attr.name],
            pronoun=record.pronoun,
        )
        for attr, pick in zip(ATTRIBUTES, template_picks)
    ]
    return " ".join(sentences[a] for a in order)


def power_law_partition(groups: int, exponent: float) -> list[float]:
    """Normalized power-law sampling weights for ``groups`` equal-size groups.

    Group g (1-based) gets weight proportional to g**(-exponent); weights sum
    to 1 and are strictly decreasing.
    """
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if exponent <= 0.0:
        raise ValueError(f"exponent must be > 0, got {exponent}")
    raw = np.arange(1, groups + 1, dtype=float) ** (-exponent)
    return (raw / raw.sum()).tolist()


@dataclass(frozen=True)
class MixPlan:
    """Token accounting for mixing a knowledge dataset into a training run.

    The knowledge dataset (knowledge_tokens long) is replicated
    knowledge_epochs = r*S/S1 times to fill its r*S share of the S-token run,
    and a (1-r)*S subset is sampled from the web pool. per_fact_frequency is
    each fact's occurrences per corpus token.
    """

    total_tokens: float
    mixing_ratio: float
    knowledge_tokens: float
    knowledge_epochs: float
    web_sample_tokens: float
    per_fact_frequency: float
    web_pool_tokens: float | None = None

    def to_dict(self) -> dict:
        return {
            "total_tokens": self.total_tokens,
            "mixing_ratio": self.mixing_ratio,
            "knowledge_tokens": self.knowledge_tokens,
            "web_pool_tokens": self.web_pool_tokens,
            "knowledge_epochs": self.knowledge_epochs,
            "web_sample_tokens": self.web_sample_tokens,
            "per_fact_frequency": self.per_fact_frequency,
        }


def plan_mixture(
    total_tokens: float,
    mixing_ratio: float,
    knowledge_tokens: float,
    web_pool_tokens: float | None = None,
    fact_count: int = 1,
    tokens_per_fact: float = 1.0,
) -> MixPlan:
    """Build the mixing plan for an S-token run at ratio r.

    The web sample is computed as S minus the knowledge share r*S, so it is
    the exact floating-point complement of what the knowledge side takes.
    """
    if not 0.0 < mixing_ratio < 1.0:
        raise ValueError(f"mixing_ratio must be in (0, 1), got {mixing_ratio}")
    if total_tokens <= 0.0 or knowledge_tokens <= 0.0:
        raise ValueError("token counts must be > 0")
    if fact_count < 1:
        raise ValueError(f"fact_count must be >= 1, got {fact_count}")
    if tokens_per_fact <= 0.0:
        raise ValueError(f"tokens_per_fact must be > 0, got {tokens_per_fact}")
    knowledge_sample = mixing_ratio * total_tokens
    web_sample = total_tokens - knowledge_sample
    if web_pool_tokens is not None and web_sample > web_pool_tokens:
        raise ValueError(
            f"web pool exhausted: the (1-r)S sample needs {web_sample} tokens "
            f"but the pool holds only {web_pool_tokens}"
        )
    return MixPlan(
        total_tokens=total_tokens,
        mixing_ratio=mixing_ratio,
        knowledge_tokens=knowledge_tokens,
        web_pool_tokens=web_pool_tokens,
        knowledge_epochs=knowledge_sample / knowledge_tokens,
        web_sample_tokens=web_sample,
        per_fact_frequency=mixing_ratio / (fact_count * tokens_per_fact),
    )


def subsample_corpus(records: Sequence, keep_ratio: float, seed: int) -> list:
    """Keep a uniform random subset of round(keep_ratio * N) records.

    Deterministic per seed; the survivors keep their original relative order.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    records = list(records)
    if keep_ratio == 1.0:
        return records
    n_keep = int(round(keep_ratio * len(records)))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(records), size=n_keep, replace=False))
    return [records[i] for i in idx]


def whitespace_tokens(text: str) -> int:
    return len(text.split())


def ckm_augment(
    records: Sequence[BiographyRecord],
    ckm_ratio: float,
    seed: int,
) -> tuple[list[str], int, int, float]:
    """Emit compact fact tuples worth ckm_ratio times the original token count.

    Each emission is "Bio: N {name} B {birth date} O {employer}" with the
    birth-date and employer fields flipped with probability 1/2, cycling over
    the records until the compact token budget is met. The original token
    count is measured from one deterministic rendering pass over the records
    (seeded from the same master seed). Returns
    (texts, original_tokens, compact_tokens, realized_ratio).
    """
    if ckm_ratio < 0.0:
        raise ValueError(f"ckm_ratio must be >= 0, got {ckm_ratio}")
    records = list(records)
    original_tokens = 0
    for i, record in enumerate(records):
        text = render_exposure(record, render_seed(seed, i, _CKM_RENDER_TAG))
        original_tokens += whitespace_tokens(text)
    target = ckm_ratio * original_tokens
    texts: list[str] = []
    compact_tokens = 0
    if records and target > 0.0:
        flip_rng = np.random.default_rng(_seed_sequence(seed, _CKM_FLIP_TAG, 0))
        i = 0
        while compact_tokens < target:
            record = records[i % len(records)]
            birth = f"B {record.attribute_values['birth_date']}"
            work = f"O {record.attribute_values['employer']}"
            fields = (work, birth) if flip_rng.integers(0, 2) else (birth, work)
            text = f"Bio: N {record.full_name} {fields[0]} {fields[1]}"
            texts.append(text)
            compact_tokens += whitespace_tokens(text)
            i += 1
    realized = compact_tokens / original_tokens if original_tokens else 0.0
    return texts, original_tokens, compact_tokens, realized


def record_to_dict(record: BiographyRecord) -> dict:
    return {
        "name": record.full_name,
        "attrs": dict(record.attribute_values),
        "pronoun": record.pronoun,
    }


def record_from_dict(doc: dict) -> BiographyRecord:
    """A record from its document; a malformed document raises a ValueError."""
    if not (isinstance(doc, dict) and doc.keys() >= {"name", "attrs", "pronoun"}
            and isinstance(doc["attrs"], dict)):
        raise ValueError(f'a record must be a JSON object with "name", "attrs" (an object) '
                         f'and "pronoun", got {doc!r}')
    return BiographyRecord(
        full_name=doc["name"],
        attribute_values=dict(doc["attrs"]),
        pronoun=doc["pronoun"],
    )
