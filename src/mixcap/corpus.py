"""Synthetic biography corpora, power-law partitions, and mixing plans.

Each biography has five attributes (birth date, birth city, university,
major, employer) whose values are drawn independently and uniformly from
fixed domains, and a full name drawn without replacement from a
400 x 400 x 1000 first/middle/last product. Rendering turns a record into
five sentences, one per attribute, with a fresh template choice per
attribute and a fresh sentence order per exposure.

Generation is deterministic given a master seed, an int in [0, 2**64):
record i derives its own random stream from (seed, i), so shards can be
produced concurrently and concatenated in index order for bit-identical
output. The streams are computed for a whole batch as array code, and the
three algorithms behind them are part of the determinism contract: the
SeedSequence hashmix with a pool of 4 words derives each stream's seed,
PCG64 (setseq-128 with XSL-RR output) generates it, and 32-bit Lemire
rejection on its 32-bit halves, low half first, turns it into bounded
draws. Writing them out pins the corpus to them, not to numpy's
``Generator``, whose streams may change between releases
(https://numpy.org/neps/nep-0019-rng-policy.html). Rendered text rests on
the same footing: an exposure's seed goes through SeedSequence into
``PCG64``, and its template picks (32-bit Lemire rejection) and sentence
order (a Fisher-Yates shuffle on masked rejection draws) are written out
on the 32-bit halves of its outputs, and so are ckm_augment's field
flips (the top bit of each half). One ``Generator`` use remains:
subsample_corpus's ``choice``. Names come from one batched uint64 Feistel
permutation of the record indices, seeded by the master seed and
cycle-walked into the name product; its images are part of the
determinism contract too. Token accounting uses
whitespace-delimited counts as a proxy tokenizer; only token ratios matter
downstream.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from importlib import resources
from typing import Iterator, Sequence

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
    "render_exposures",
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


class _BirthDateDomain(AttributeDomain):
    """The birth-date domain, whose 33,600 values are built on first read.

    Generation formats birth dates from its draws and never reads this
    tuple, so no import pays for it.
    """

    def __init__(self, templates: tuple[str, ...]):
        super().__init__("birth_date", (), templates)
        del self.__dict__["values"]  # let the first read reach values below

    @cached_property
    def values(self) -> tuple[str, ...]:
        # 28 days x 12 months x 100 years (every other year of 1900-2098),
        # ordered by year, then month, then day. The 336 "Month DD, "
        # prefixes and the 100 years are formatted once each.
        prefixes = [f"{month} {day:02d}, " for month in _MONTHS for day in range(1, 29)]
        return tuple(prefix + year for year in map(str, range(1900, 2100, 2))
                     for prefix in prefixes)


ATTRIBUTES = (
    _BirthDateDomain(
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
_ATTRIBUTE_SET = frozenset(ATTRIBUTE_ORDER)
_DOMAIN_BY_NAME = {a.name: a for a in ATTRIBUTES}

# The domain cardinalities are part of the artifact contract; fail loudly if
# the shipped data files ever drift. The generated birth-date domain is left
# unbuilt here; its size, order and uniqueness are pinned by the tests.
_EXPECTED_DOMAIN_SIZES = {
    "birth_date": 33_600,
    "birth_city": 200,
    "university": 300,
    "major": 100,
    "employer": 263,
}
for _attr in ATTRIBUTES[1:]:
    if len(_attr.values) != _EXPECTED_DOMAIN_SIZES[_attr.name]:
        raise RuntimeError(
            f"attribute domain {_attr.name} has {len(_attr.values)} values, "
            f"expected {_EXPECTED_DOMAIN_SIZES[_attr.name]}"
        )
    if len(set(_attr.values)) != len(_attr.values):
        raise RuntimeError(f"attribute domain {_attr.name} has duplicate values")

# Entropy of one biography: the five attribute values are independent and
# uniform, so it is the sum of log2 domain sizes (~45.59 bits).
RECORD_ENTROPY_BITS = sum(math.log2(size) for size in _EXPECTED_DOMAIN_SIZES.values())

_PRONOUNS = ("his", "her", "their")


@dataclass(frozen=True)
class BiographyRecord:
    """One person: full name, the five attribute values, and a possessive pronoun."""

    full_name: str
    attribute_values: dict[str, str]
    pronoun: str

    def __post_init__(self):
        # One containment test per record; the list is built only to report.
        if not self.attribute_values.keys() >= _ATTRIBUTE_SET:
            missing = [a for a in ATTRIBUTE_ORDER if a not in self.attribute_values]
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
# per-record attribute streams, whose key is the one word (i,). A two-part
# key (tag, index) is a different hash input from any one-part key, so these
# streams cannot repeat a per-record stream. render_exposures renders record
# ``index`` under _RENDER_TAG by default (synbio --render-out, mixplan's
# measured tokens_per_fact) and under _CKM_RENDER_TAG to count ckm_augment's
# original tokens; _CKM_FLIP_TAG (index 0) drives ckm_augment's field flips.
_CKM_RENDER_TAG = 10
_CKM_FLIP_TAG = 11
_RENDER_TAG = 12

# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's 128-bit
# LCG multiplier (pcg64.h), split into 64-bit halves.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_DRAW_BLOCK = 1 << 14
_FLIP_BLOCK = 1 << 9  # PCG64 outputs per block of ckm flips, two flips each
# ckm_augment emits at most 2**32 tuples, the record bound of render_exposures;
# a tuple holds at least its four tags' tokens: "Bio:", "N", "B" and "O".
_CKM_MAX_TUPLES = 2**32
_CKM_TAG_TOKENS = 4


def _check_int(name: str, value, bits: int) -> None:
    """Refuse anything but an int (not a bool) in [0, 2**bits), naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step of ``value``; returns it and the next constant.

    ``value`` is a Python int below 2**32 or a uint32 array. Every Python int
    that meets an array is below 2**32 too, so array arithmetic stays uint32
    and wraps mod 2**32 under the casting rules of numpy 1.x and 2.x alike.
    """
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    value = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return value ^ value >> 16


def _seed_words(seed: int, spawn_key: tuple, n_words: int) -> list:
    """``SeedSequence(seed, spawn_key).generate_state(n_words)``, word by word.

    Each spawn-key part is one word: a Python int below 2**32, or a uint32
    array to hash a whole batch of keys at once. ``seed`` is below 2**64, so
    its words zero-padded to the pool size of 4 are (low, high, 0, 0). Words
    that do not depend on an array part stay Python ints, so the seed's pool
    is mixed once per call and only the array parts run per element.
    """
    entropy = [seed & _MASK32, seed >> 32, 0, 0, *spawn_key]
    const, pool = _INIT_A, []
    for word in entropy[:4]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    const, words = _INIT_B, []
    for k in range(n_words):
        value, const = _hashmix(pool[k % 4], const, _MULT_B)
        words.append(value)
    return words


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 ``a`` and the constant ``b``."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    low = a0 * b0
    mid = a1 * b0 + (low >> _SHIFT32)
    cross = a0 * b1 + (mid & _LOW32)
    return a1 * b1 + (mid >> _SHIFT32) + (cross >> _SHIFT32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo).astype(np.uint64), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + increment mod 2**128 on (high, low) uint64 halves."""
    prod_hi = (_mulhi64(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI)
               + hi * np.uint64(_PCG_MULT_LO))
    return _add128(prod_hi, lo * np.uint64(_PCG_MULT_LO), inc_hi, inc_lo)


def _pcg_words(state: tuple, n_outputs: int) -> tuple[np.ndarray, tuple]:
    """The next ``n_outputs`` PCG64 outputs of each stream as 32-bit words.

    ``state`` is the (high, low, increment high, increment low) uint64 arrays
    of the streams; each output is a step followed by the XSL-RR of the new
    state: its halves xor-ed, rotated right by its top 6 bits. Returns the
    words, low half first, one row per stream, and the advanced state.
    """
    hi, lo, inc_hi, inc_lo = state
    outs = []
    for _ in range(n_outputs):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        outs.append(x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63)))
    out = np.stack(outs, axis=1)
    words = np.stack([out & _LOW32, out >> _SHIFT32], axis=2).reshape(len(hi), 2 * n_outputs)
    return words, (hi, lo, inc_hi, inc_lo)


def _attribute_draws(seed: int, indices: np.ndarray, lows, highs) -> np.ndarray:
    """Row j is ``default_rng(SeedSequence(seed, spawn_key=(i,))).integers(lows, highs)``
    for record ``i = indices[j]``, an index below 2**32.

    The whole batch runs as array code in three stages. Seeding: the
    SeedSequence hash of every key (i,) and its first 4 uint64 words
    (_seed_words). PCG64 (setseq-128) on (high, low) uint64 halves: state 0,
    step, add the initial state, step (_pcg_words). Draws: 32-bit Lemire
    rejection on the outputs' 32-bit words, low half first. A draw takes the
    next word while the low word of ``word * size`` is below 2**32 mod size,
    which shifts every later draw of that record by one word. So all rows
    are drawn at once from the word positions 0..len(lows)-1; each record
    that rejected shifts the positions from its first rejected draw on and
    is drawn again, until no record rejects. Each range ``highs - lows``
    must lie in [2, 2**32].
    """
    lows = np.asarray(lows, dtype=np.int64)
    sizes = np.asarray(highs, dtype=np.int64) - lows
    if not ((sizes >= 2) & (sizes <= 1 << 32)).all():
        raise ValueError(f"every range must be in [2, 2**32], got {sizes.tolist()}")
    multipliers, thresholds = sizes.astype(np.uint64), ((1 << 32) % sizes).astype(np.uint64)
    key = np.asarray(indices, dtype=np.uint32)
    seed_words = [w.astype(np.uint64) for w in _seed_words(seed, (key,), 8)]
    init_hi, init_lo, seq_hi, seq_lo = (
        seed_words[k] | seed_words[k + 1] << _SHIFT32 for k in range(0, 8, 2)
    )
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, init_hi, init_lo), inc_hi, inc_lo)
    words, state = _pcg_words((hi, lo, inc_hi, inc_lo), (sizes.size + 1) // 2)

    columns = np.arange(sizes.size)
    draws = np.empty((key.size, sizes.size), dtype=np.int64)
    rows = np.arange(key.size)
    pos = np.broadcast_to(columns, draws.shape)
    while rows.size:
        if pos[:, -1].max() >= words.shape[1]:
            more, state = _pcg_words(state, 1)
            words = np.hstack([words, more])
        scaled = np.take_along_axis(words, pos, axis=1) * multipliers
        draws[rows] = (scaled >> _SHIFT32).astype(np.int64) + lows
        rejected = (scaled & _LOW32) < thresholds
        retry = rejected.any(axis=1)
        first = rejected[retry].argmax(axis=1)
        rows, words, state = rows[retry], words[retry], tuple(x[retry] for x in state)
        pos = pos[retry] + (columns >= first[:, None])
    return draws


def generate_synbio(count: int, seed: int) -> list[BiographyRecord]:
    """Generate ``count`` biographies with distinct names, deterministically.

    Attribute values are independent and uniform over their domains. Record
    i draws one block of 8 integers (day, month, year, city, university,
    major, employer, pronoun) from its own stream, the one numpy's
    ``default_rng(SeedSequence(seed, spawn_key=(i,))).integers`` gives; the
    layout and the three algorithms behind it are part of the determinism
    contract: the SeedSequence hashmix with a pool of 4 words, PCG64
    (setseq-128) with XSL-RR output, and 32-bit Lemire rejection on the
    outputs' halves, low half first. They run here as batched array code
    (_attribute_draws), so the corpus is pinned to those algorithms and not
    to ``Generator.integers``, whose streams may change between numpy
    releases (https://numpy.org/neps/nep-0019-rng-policy.html). ``seed``
    must be an int in [0, 2**64).
    """
    _check_int("seed", seed, 64)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > NAME_PRODUCT_SIZE:
        raise ValueError(
            f"count must be <= {NAME_PRODUCT_SIZE} (the unique-name product), got {count}"
        )
    n_first, n_middle = len(_FIRST), len(_MIDDLE)
    cities, universities, majors, employers = (
        _DOMAIN_BY_NAME[name].values for name in ATTRIBUTE_ORDER[1:]
    )
    lows = [1, 0, 0, 0, 0, 0, 0, 0]
    highs = [29, 12, 100, len(cities), len(universities), len(majors), len(employers),
             len(_PRONOUNS)]
    # Blocks of _DRAW_BLOCK records bound the memory of the draw arrays.
    blocks = (np.arange(start, min(start + _DRAW_BLOCK, count))
              for start in range(0, count, _DRAW_BLOCK))
    draws = itertools.chain.from_iterable(
        _attribute_draws(seed, block, lows, highs).tolist() for block in blocks
    )
    records = []
    for name_idx, row in zip(_permuted_indices(count, seed).tolist(), draws):
        first = _FIRST[name_idx % n_first]
        middle = _MIDDLE[(name_idx // n_first) % n_middle]
        last = _LAST[name_idx // (n_first * n_middle)]
        day, month, year_step, city, uni, major, employer, pron = row
        year = 1900 + 2 * year_step
        records.append(
            BiographyRecord(
                full_name=f"{first} {middle} {last}",
                attribute_values={
                    "birth_date": f"{_MONTHS[month]} {day:02d}, {year}",
                    "birth_city": cities[city],
                    "university": universities[uni],
                    "major": majors[major],
                    "employer": employers[employer],
                },
                pronoun=_PRONOUNS[pron],
            )
        )
    return records


# Each template as a %-style string: literal % escaped, {name} and {pronoun}
# kept, {value} keyed by the attribute's name, so one mapping per exposure
# fills all five sentences and no template is parsed per exposure.
_PERCENT_TEMPLATES = tuple(
    tuple(t.replace("%", "%%").format(name="%(name)s", pronoun="%(pronoun)s",
                                      value=f"%({attr.name})s") for t in attr.templates)
    for attr in ATTRIBUTES
)


def _halves(bitgen: np.random.PCG64, block: int) -> Iterator[int]:
    """The 32-bit halves of bitgen's raw outputs, low half first, without end.

    Outputs are drawn ``block`` at a time; the little-endian view puts each
    output's low half first, the order in which Generator's 32-bit draws
    read them.
    """
    while True:
        yield from bitgen.random_raw(block).astype("<u8", copy=False).view("<u4").tolist()


def _render_draws(words: Iterator[int]) -> tuple[list[int], list[int]]:
    """Template picks and sentence order from a stream of 32-bit words.

    The picks are ``Generator.integers(0, 5, size=5)``: 32-bit Lemire
    rejection, which takes the next word while ``word * 5 mod 2**32`` is
    below ``2**32 mod 5`` (1, so only a zero word). The order is
    ``Generator.permutation(5)``: a Fisher-Yates shuffle of 0..4 that swaps
    position i = 4, 3, 2, 1 with a draw in [0, i], the next word masked to
    the smallest all-ones mask >= i and taken again while above i.
    """
    draw = words.__next__
    picks = []
    for _ in ATTRIBUTES:
        scaled = draw() * 5
        while not scaled & _MASK32:
            scaled = draw() * 5
        picks.append(scaled >> 32)
    order = [0, 1, 2, 3, 4]
    for i, mask in ((4, 7), (3, 3), (2, 3), (1, 1)):
        j = draw() & mask
        while j > i:
            j = draw() & mask
        order[i], order[j] = order[j], order[i]
    return picks, order


def render_exposure(record: BiographyRecord, seed: int) -> str:
    """Render one exposure of a record: five sentences in a fresh random order.

    Each attribute picks one of its five templates uniformly, then the five
    sentences are shuffled uniformly; both choices are driven by ``seed``
    exactly as ``default_rng(seed)``'s ``integers(0, 5, size=5)`` then
    ``permutation(5)`` drive them: ``PCG64(seed)`` (seeded through
    SeedSequence) supplies the 32-bit halves of its outputs, low half first,
    to the written-out draws of _render_draws. Values appear verbatim, so
    evaluation spans are recoverable from the text. ``seed`` is an int or a
    numpy integer in [0, 2**64).
    """
    _check_int("seed", int(seed) if isinstance(seed, np.integer) else seed, 64)
    # One block of 6 outputs covers the draws unless the shuffle rejects 4 times.
    picks, order = _render_draws(_halves(np.random.PCG64(seed), 6))
    fields = {**record.attribute_values, "name": record.full_name, "pronoun": record.pronoun}
    return " ".join([_PERCENT_TEMPLATES[a][picks[a]] % fields for a in order])


def render_exposures(records: Sequence[BiographyRecord], seed: int,
                     tag: int = _RENDER_TAG) -> Iterator[str]:
    """One exposure of each record, rendered lazily in order.

    Record i goes through render_exposure with the seed
    ``SeedSequence(seed, spawn_key=(tag, i)).generate_state(1)[0]``; the
    seeds of the whole corpus are hashed as one batch.
    """
    _check_int("seed", seed, 64)
    _check_int("count", len(records), 32)
    _check_int("tag", tag, 32)
    seeds = _seed_words(seed, (tag, np.arange(len(records), dtype=np.uint32)), 1)[0]
    return map(render_exposure, records, seeds.tolist())


def power_law_partition(groups: int, exponent: float) -> list[float]:
    """Normalized power-law sampling weights for ``groups`` equal-size groups.

    Group g (1-based) gets weight proportional to g**(-exponent); weights sum
    to 1 and are strictly decreasing.
    """
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if exponent <= 0.0:
        raise ValueError(f"exponent must be > 0, got {exponent}")
    # Python's ** is the C library's pow, the same on every CPU; numpy's
    # array power dispatches to SIMD code whose last bit depends on it.
    raw = np.array([float(g) ** -exponent for g in range(1, groups + 1)])
    weights = raw / raw.sum()
    if not (weights[-1] > 0.0 and np.all(np.diff(weights) < 0.0)):
        raise ValueError(f"exponent {exponent} gives {groups} weights that are not "
                         "strictly decreasing and > 0 in floating point")
    return weights.tolist()


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
        return asdict(self)


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
    for name, tokens in (("total_tokens", total_tokens), ("knowledge_tokens", knowledge_tokens),
                         ("tokens_per_fact", tokens_per_fact)):
        if not (math.isfinite(tokens) and tokens > 0.0):
            raise ValueError(f"token counts must be finite and > 0: {name} is {tokens}")
    if web_pool_tokens is not None and not math.isfinite(web_pool_tokens):
        raise ValueError(f"web_pool_tokens must be finite, got {web_pool_tokens}")
    if not fact_count >= 1:
        raise ValueError(f"fact_count must be >= 1, got {fact_count}")
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

    Deterministic per seed, an int in [0, 2**64); the survivors keep their
    original relative order.
    """
    _check_int("seed", seed, 64)
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    records = list(records)
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
    the records until the compact token budget is met. A budget that could
    take more than 2**32 emissions of the fewest tokens one can hold (its
    four tags) is refused up front, naming ckm_ratio. The flips are the
    ``Generator.integers(0, 2)`` draws of ``PCG64(SeedSequence(seed,
    spawn_key=(11, 0)))``, read off its raw outputs. The original token count
    is measured from one deterministic rendering pass over the records
    (seeded from the same master seed, an int in [0, 2**64)). Returns
    (texts, original_tokens, compact_tokens, realized_ratio).
    """
    if not (math.isfinite(ckm_ratio) and ckm_ratio >= 0.0):
        raise ValueError(f"ckm_ratio must be finite and >= 0, got {ckm_ratio}")
    records = list(records)
    original_tokens = sum(map(whitespace_tokens,
                              render_exposures(records, seed, _CKM_RENDER_TAG)))
    target = ckm_ratio * original_tokens
    if target / _CKM_TAG_TOKENS > _CKM_MAX_TUPLES:
        raise ValueError(
            f"ckm_ratio {ckm_ratio!r} times {original_tokens} original tokens asks for "
            f"{target:.4g} compact tokens: up to {target / _CKM_TAG_TOKENS:.4g} tuples of at "
            f"least {_CKM_TAG_TOKENS} tokens, past the 2**32 that ckm emits at most"
        )
    texts: list[str] = []
    compact_tokens = 0
    if target > 0.0:
        bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_CKM_FLIP_TAG, 0)))
        # Generator.integers(0, 2) is 32-bit Lemire on the next 32-bit word
        # and never rejects: a flip is that word's top bit.
        flips = (word >> 31 for word in _halves(bitgen, _FLIP_BLOCK))
        for record, flip in zip(itertools.cycle(records), flips):
            if compact_tokens >= target:
                break
            birth = f"B {record.attribute_values['birth_date']}"
            work = f"O {record.attribute_values['employer']}"
            fields = (work, birth) if flip else (birth, work)
            text = f"Bio: N {record.full_name} {fields[0]} {fields[1]}"
            texts.append(text)
            compact_tokens += whitespace_tokens(text)
    realized = compact_tokens / original_tokens if original_tokens else 0.0
    return texts, original_tokens, compact_tokens, realized


def record_to_dict(record: BiographyRecord) -> dict:
    return {
        "name": record.full_name,
        "attrs": dict(record.attribute_values),
        "pronoun": record.pronoun,
    }


def record_from_dict(doc: dict) -> BiographyRecord:
    """A record from its document; a malformed document, or a name, pronoun or
    attribute value that is not a string, raises a ValueError."""
    if not (isinstance(doc, dict) and doc.keys() >= {"name", "attrs", "pronoun"}
            and isinstance(doc["attrs"], dict)):
        raise ValueError(f'a record must be a JSON object with "name", "attrs" (an object) '
                         f'and "pronoun", got {doc!r}')
    attrs = doc["attrs"]
    for path, value in (("name", doc["name"]), ("pronoun", doc["pronoun"]),
                        *((f"attrs.{a}", attrs[a]) for a in ATTRIBUTE_ORDER if a in attrs)):
        if not isinstance(value, str):
            raise ValueError(f"record field {path} must be a string, got {value!r}")
    return BiographyRecord(
        full_name=doc["name"],
        attribute_values=dict(attrs),
        pronoun=doc["pronoun"],
    )
