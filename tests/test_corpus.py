"""Biography generation, rendering, partitions, and mixing plans."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from helpers import feistel_image, feistel_name_index
from mixcap.corpus import (
    ATTRIBUTES,
    ATTRIBUTE_ORDER,
    NAME_PRODUCT_SIZE,
    RECORD_ENTROPY_BITS,
    BiographyRecord,
    ckm_augment,
    generate_synbio,
    plan_mixture,
    power_law_partition,
    record_from_dict,
    record_to_dict,
    render_exposure,
    render_exposures,
    subsample_corpus,
    whitespace_tokens,
)
from mixcap.corpus import (
    _DRAW_BLOCK,
    _MONTHS,
    _attribute_draws,
    _permuted_indices,
    _render_draws,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src"

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 20250524]
SYNBIO_LOWS = [1, 0, 0, 0, 0, 0, 0, 0]
SYNBIO_HIGHS = [29, 12, 100, 200, 300, 100, 263, 3]


def reference_draws(seed, indices, lows, highs):
    """numpy's own per-record draws, and whether each stream ended on a half word."""
    rows, odd = [], []
    for i in indices:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        rows.append(rng.integers(lows, highs).tolist())
        odd.append(rng.bit_generator.state["has_uint32"])
    return rows, odd


class TestDomains:
    def test_cardinalities(self):
        sizes = {a.name: len(a.values) for a in ATTRIBUTES}
        assert sizes == {
            "birth_date": 28 * 12 * 100,
            "birth_city": 200,
            "university": 300,
            "major": 100,
            "employer": 263,
        }

    def test_values_unique(self):
        for a in ATTRIBUTES:
            assert len(set(a.values)) == len(a.values)

    def test_five_templates_each(self):
        for a in ATTRIBUTES:
            assert len(a.templates) == 5

    def test_name_product(self):
        assert NAME_PRODUCT_SIZE == 400 * 400 * 1000 == 160_000_000

    def test_entropy_constant(self):
        expected = sum(math.log2(len(a.values)) for a in ATTRIBUTES)
        assert RECORD_ENTROPY_BITS == pytest.approx(expected, abs=1e-9)
        assert RECORD_ENTROPY_BITS == pytest.approx(45.59, abs=0.01)

    def test_birth_dates_in_year_month_day_order(self):
        expected = tuple(
            f"{month} {day:02d}, {year}"
            for year in range(1900, 2100, 2)
            for month in _MONTHS
            for day in range(1, 29)
        )
        assert ATTRIBUTES[0].name == "birth_date"
        assert ATTRIBUTES[0].values == expected

    def test_anchor_values_present(self):
        by_name = {a.name: a for a in ATTRIBUTES}
        assert "St. Louis, MO" in by_name["birth_city"].values
        assert "Santa Clara University" in by_name["university"].values
        assert "Robotics" in by_name["major"].values
        assert "Truist Financial" in by_name["employer"].values


class TestNamePermutation:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 20250524])
    def test_matches_per_record_reference(self, seed):
        n = 2000
        # About 40% of first images fall outside the product, so this count
        # exercises cycle-walking.
        assert any(feistel_image(i, seed) >= NAME_PRODUCT_SIZE for i in range(n))
        batched = _permuted_indices(n, seed)
        assert batched.dtype == np.uint64
        assert batched.tolist() == [feistel_name_index(i, seed) for i in range(n)]

    def test_distinct_and_inside_the_product(self):
        names = _permuted_indices(50_000, 7)
        assert len(np.unique(names)) == names.size
        assert int(names.max()) < NAME_PRODUCT_SIZE

    def test_empty(self):
        assert _permuted_indices(0, 3).size == 0


class TestStoredDigests:
    def test_artifacts_match_the_benchmark_digests(self, monkeypatch):
        # The digests stored with the benchmark pin the bytes of
        # generate_synbio, render_exposure, subsample_corpus and ckm_augment,
        # so a corpus byte change fails here and not only in bench/digests.py.
        monkeypatch.syspath_prepend(str(BENCH))
        import digests

        import mixcap

        stored = json.loads(digests.EXPECTED.read_text())["sha256"]
        assert digests.artifacts(mixcap) == stored


class TestAttributeDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "lows, highs",
        [
            (SYNBIO_LOWS, SYNBIO_HIGHS),
            # 2**32 mod (2**31 + 1) = 2**31 - 1, so about half of all draws
            # are rejected: rejection chains run long, and a column draws
            # from a low or a high half word depending on the record.
            ([0] * 8, [2**31 + 1] * 8),
            # An odd column count, both ends of [2, 2**32], negative lows.
            ([-5, 0, 0, 10, -(2**31)], [2**31 - 4, 2, 2**32, 13, 2**31 - 5]),
        ],
    )
    def test_matches_numpy_generator(self, seed, lows, highs):
        count = 300
        draws = _attribute_draws(seed, np.arange(count), lows, highs)
        expected, odd = reference_draws(seed, range(count), lows, highs)
        assert draws.dtype == np.int64 and draws.shape == (count, len(lows))
        assert draws.tolist() == expected
        if highs[0] == 2**31 + 1:
            # A stream that ends on a half word used an odd number of words,
            # so it rejected and its later draws changed half-word alignment.
            assert 0 < sum(odd) < count

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [0, 1])
    def test_smallest_batches(self, seed, count):
        for highs in (SYNBIO_HIGHS, [2**31 + 1] * 8):
            draws = _attribute_draws(seed, np.arange(count), SYNBIO_LOWS, highs)
            assert draws.shape == (count, 8)
            assert draws.tolist() == reference_draws(seed, range(count), SYNBIO_LOWS, highs)[0]

    def test_records_across_a_draw_block_boundary(self):
        # generate_synbio draws _DRAW_BLOCK records at a time; the records on
        # both sides of a block boundary keep numpy's draws and the layout.
        start, stop = _DRAW_BLOCK - 2, _DRAW_BLOCK + 2
        records = generate_synbio(stop, 3)[start:]
        rows, _ = reference_draws(3, range(start, stop), SYNBIO_LOWS, SYNBIO_HIGHS)
        values = {a.name: a.values for a in ATTRIBUTES[1:]}
        for record, (day, month, year, city, uni, major, employer, pron) in zip(records, rows):
            assert record.attribute_values == {
                "birth_date": f"{_MONTHS[month]} {day:02d}, {1900 + 2 * year}",
                "birth_city": values["birth_city"][city],
                "university": values["university"][uni],
                "major": values["major"][major],
                "employer": values["employer"][employer],
            }
            assert record.pronoun == ("his", "her", "their")[pron]

    @pytest.mark.parametrize("highs", [[1], [2**32 + 1]])
    def test_range_outside_the_32_bit_path_is_refused(self, highs):
        with pytest.raises(ValueError, match="range"):
            _attribute_draws(1, np.arange(3), [0], highs)


class TestRenderSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_matches_seed_sequence(self, seed):
        records = generate_synbio(300, 3)
        for tag in (10, 12):
            rendered = render_exposures(records, seed, tag)
            assert isinstance(rendered, Iterator)
            assert list(rendered) == [
                render_exposure(
                    record,
                    np.random.SeedSequence(seed, spawn_key=(tag, i)).generate_state(1)[0],
                )
                for i, record in enumerate(records)
            ]
        assert list(render_exposures(records, seed)) == list(render_exposures(records, seed, 12))
        assert list(render_exposures([], seed)) == []


class TestBatchedSeeding:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("SeedSequence", "default_rng", "Generator"):
            def counted(*args, _name=name, _original=getattr(np.random, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counted)
        return calls

    def test_generation_makes_no_per_record_stream(self, calls):
        records = generate_synbio(1000, 7)
        assert len(records) == 1000
        assert calls["SeedSequence"] <= 2 and calls["default_rng"] <= 2

    def test_render_seeds_make_no_per_record_stream(self, calls):
        records = generate_synbio(1000, 7)
        assert len(list(render_exposures(records, 7))) == 1000
        ckm_augment(records, 0.1, 7)
        # render_exposure seeds one PCG64 per record and builds no Generator;
        # the seeds it gets come from one batch. ckm_augment's one
        # SeedSequence seeds its flip stream, a PCG64 read without a Generator.
        assert calls["SeedSequence"] == 1
        assert calls["default_rng"] == calls["Generator"] == 0

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, True, 1.5, "7"])
    def test_seed_outside_the_domain_is_refused(self, seed):
        records = generate_synbio(2, 1)
        for call in (
            lambda: generate_synbio(2, seed),
            lambda: render_exposures(records, seed),
            lambda: render_exposure(records[0], seed),
            lambda: ckm_augment(records, 0.5, seed),
            lambda: subsample_corpus(records, 0.5, seed),
            lambda: subsample_corpus(records, 1.0, seed),
        ):
            with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
                call()

    def test_birth_dates_are_built_on_first_read(self):
        probe = (
            "from mixcap.corpus import ATTRIBUTES, generate_synbio\n"
            "generate_synbio(50, 3)\n"
            "domain = ATTRIBUTES[0]\n"
            "assert 'values' not in vars(domain)\n"
            "assert len(domain.values) == 33_600 and vars(domain)['values'] is domain.values\n"
        )
        path = [str(SRC), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        subprocess.run([sys.executable, "-c", probe], env=env, check=True)


class TestGenerateSynbio:
    def test_empty(self):
        assert generate_synbio(0, seed=1) == []

    def test_deterministic(self):
        a = generate_synbio(50, seed=123)
        b = generate_synbio(50, seed=123)
        assert a == b
        as_json = [json.dumps(record_to_dict(r), sort_keys=True) for r in a]
        bs_json = [json.dumps(record_to_dict(r), sort_keys=True) for r in b]
        assert as_json == bs_json

    def test_seed_changes_output(self):
        assert generate_synbio(20, seed=1) != generate_synbio(20, seed=2)

    def test_prefix_stability(self):
        # Per-record seeding: a shorter run is a prefix of a longer one,
        # so shards can be generated independently and concatenated.
        assert generate_synbio(120, seed=31)[:40] == generate_synbio(40, seed=31)

    def test_count_cap(self):
        with pytest.raises(ValueError, match="unique-name product"):
            generate_synbio(NAME_PRODUCT_SIZE + 1, seed=0)

    def test_names_distinct_and_attributes_uniform(self):
        n = 100_000
        records = generate_synbio(n, seed=99)
        names = {r.full_name for r in records}
        assert len(names) == n

        # Chi-square uniformity for each attribute at significance 0.001.
        # The composite birth date is tested through its three components.
        def chi2_ok(counts, k):
            observed = np.zeros(k)
            for idx, c in counts.items():
                observed[idx] = c
            _, pvalue = stats.chisquare(observed)
            return pvalue > 0.001

        by_name = {a.name: a for a in ATTRIBUTES}
        for attr in ("birth_city", "university", "major", "employer"):
            values = by_name[attr].values
            index = {v: i for i, v in enumerate(values)}
            counts = Counter(index[r.attribute_values[attr]] for r in records)
            assert chi2_ok(counts, len(values)), attr

        days = Counter(int(r.attribute_values["birth_date"].split()[1].rstrip(",")) - 1 for r in records)
        months = Counter(r.attribute_values["birth_date"].split()[0] for r in records)
        years = Counter(int(r.attribute_values["birth_date"].split()[-1]) for r in records)
        assert chi2_ok(days, 28)
        assert len(months) == 12 and chi2_ok(
            Counter({i: c for i, (_, c) in enumerate(sorted(months.items()))}), 12
        )
        assert len(years) == 100 and chi2_ok(
            Counter({i: c for i, (_, c) in enumerate(sorted(years.items()))}), 100
        )

    def test_record_fields_valid(self):
        for r in generate_synbio(20, seed=5):
            assert set(r.attribute_values) == set(ATTRIBUTE_ORDER)
            assert len(r.full_name.split()) == 3
            assert r.pronoun in ("his", "her", "their")


def reference_render(record, seed):
    """An exposure as numpy's Generator draws it and str.format fills it."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, 5, size=len(ATTRIBUTES)).tolist()
    order = rng.permutation(len(ATTRIBUTES)).tolist()
    sentences = [
        attr.templates[pick].format(name=record.full_name, pronoun=record.pronoun,
                                    value=record.attribute_values[attr.name])
        for attr, pick in zip(ATTRIBUTES, picks)
    ]
    return " ".join(sentences[a] for a in order)


class TestRenderDraws:
    """The written-out integers(0, 5, size=5) and permutation(5) on crafted words."""

    def test_zero_word_is_rejected_and_shuffle_draws_above_i_take_the_next_word(self):
        words = iter([
            0,  # (0 * 5) mod 2**32 < 2**32 mod 5: rejected
            2**32 - 1, 1, 2**30, 2**31, 0xCCCCCCCD,  # picks 4, 0, 1, 2, 4
            5, 6, 2,  # i = 4, mask 7: 5 and 6 are above 4, 2 swaps 4 and 2
            0xFFFFFFFF,  # i = 3, mask 3: 3, no swap
            0xFFFFFFFB, 4,  # i = 2, mask 3: 3 is above 2, 0 swaps 2 and 0
            2**32 - 1,  # i = 1, mask 1: 1, no swap
            "unread",
        ])
        assert _render_draws(words) == ([4, 0, 1, 2, 4], [4, 1, 0, 3, 2])
        assert next(words) == "unread"


class TestRenderExposure:
    def test_matches_numpy_generator_and_str_format(self):
        records = generate_synbio(40, 5)
        records.append(BiographyRecord(
            full_name="Ada %s {name} Lovelace",
            attribute_values={**records[0].attribute_values, "employer": "100% {value} Corp"},
            pronoun="%(name)s",
        ))
        extra = np.random.SeedSequence(2024).generate_state(3000, dtype=np.uint64).tolist()
        extra += [*range(2000), *(2**64 - 1 - k for k in range(100)), 2**32 - 1, 2**32]
        seeds = SEEDS + extra
        assert len(extra) >= 5000
        mismatches = [
            seed for k, seed in enumerate(seeds)
            if render_exposure(records[k % len(records)], seed)
            != reference_render(records[k % len(records)], seed)
        ]
        assert mismatches == []
        # Some of these seeds need more words than the first 6 outputs hold.
        refills = 0
        for seed in seeds:
            raw = np.random.PCG64(seed).random_raw(6)
            try:
                _render_draws(iter(raw.astype("<u8").view("<u4").tolist()))
            except StopIteration:
                refills += 1
        assert refills > 0

    def test_deterministic(self):
        record = generate_synbio(1, seed=3)[0]
        assert render_exposure(record, 42) == render_exposure(record, 42)

    def test_five_sentences_values_verbatim(self):
        record = generate_synbio(1, seed=3)[0]
        text = render_exposure(record, 42)
        assert text.count(".") >= 5
        for value in record.attribute_values.values():
            assert value in text

    def test_paper_anchor_city_verbatim(self):
        record = BiographyRecord(
            full_name="Gracie Tessa Howell",
            attribute_values={
                "birth_date": "August 09, 1992",
                "birth_city": "St. Louis, MO",
                "university": "Santa Clara University",
                "major": "Robotics",
                "employer": "Truist Financial",
            },
            pronoun="her",
        )
        text = render_exposure(record, 7)
        assert "St. Louis, MO" in text
        assert "Gracie Tessa Howell" in text

    def test_permutation_distribution(self):
        record = generate_synbio(1, seed=11)[0]
        n = 10_000
        counts = Counter()
        sentinel = {record.attribute_values[a]: a for a in ATTRIBUTE_ORDER}
        for s in range(n):
            text = render_exposure(record, s)
            positions = sorted(
                (text.index(value), attr) for value, attr in sentinel.items()
            )
            counts[tuple(attr for _, attr in positions)] += 1
        assert len(counts) == 120
        expected = n / 120
        sigma = math.sqrt(n * (1 / 120) * (119 / 120))
        for perm, c in counts.items():
            assert abs(c - expected) <= 5 * sigma, perm

    def test_template_distribution(self):
        record = generate_synbio(1, seed=13)[0]
        n = 5000
        first_sentences = Counter()
        value = record.attribute_values["birth_city"]
        for s in range(n):
            text = render_exposure(record, s)
            for sent in text.split(". "):
                if value.rstrip(".") in sent:
                    prefix = sent.split(value)[0]
                    first_sentences[prefix] += 1
                    break
        # All five city templates should appear roughly equally often.
        assert len(first_sentences) == 5
        expected = n / 5
        for c in first_sentences.values():
            assert abs(c - expected) <= 5 * math.sqrt(n * 0.2 * 0.8)


class TestPowerLawPartition:
    def test_single_group(self):
        assert power_law_partition(1, 1.5) == [1.0]

    def test_two_groups_unit_exponent(self):
        w = power_law_partition(2, 1.0)
        assert w[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert w[1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_hundred_groups(self):
        w = power_law_partition(100, 1.5)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
        assert w[0] / w[99] == pytest.approx(100.0**1.5, rel=1e-9)
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_positive_exponent_required(self):
        with pytest.raises(ValueError, match="exponent"):
            power_law_partition(2, 0.0)

    @pytest.mark.parametrize("groups, exponent", [(3, math.inf), (3, math.nan), (100, 2000.0),
                                                  (3, 1e-300)])
    def test_weights_that_underflow_or_tie_are_refused(self, groups, exponent):
        with pytest.raises(ValueError, match=f"exponent {exponent} gives {groups} weights"):
            power_law_partition(groups, exponent)


class TestPlanMixture:
    def test_hundred_epochs(self):
        plan = plan_mixture(32e9, 0.1, 3.2e7, fact_count=320_000, tokens_per_fact=100.0)
        assert plan.knowledge_epochs == pytest.approx(100.0, rel=1e-12)
        assert plan.per_fact_frequency == pytest.approx(3.125e-9, rel=1e-12)

    def test_single_epoch(self):
        for r in (0.1, 0.37, 0.8):
            s1 = 1e6
            plan = plan_mixture(s1 / r, r, s1)
            assert plan.knowledge_epochs == pytest.approx(1.0, rel=1e-12)

    def test_token_conservation(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            s = float(rng.uniform(1e6, 1e12))
            r = float(rng.uniform(0.01, 0.99))
            plan = plan_mixture(s, r, s * r / 10)
            # The web sample is the exact complement of the knowledge share.
            assert plan.web_sample_tokens == s - r * s
            assert r * s + plan.web_sample_tokens == pytest.approx(s, rel=1e-15)

    def test_pool_exhaustion_names_the_sample(self):
        with pytest.raises(ValueError, match=r"\(1-r\)S"):
            plan_mixture(1e9, 0.1, 1e6, web_pool_tokens=1e8)

    def test_validation(self):
        with pytest.raises(ValueError, match="mixing_ratio"):
            plan_mixture(1e9, 1.0, 1e6)
        with pytest.raises(ValueError, match="tokens_per_fact"):
            plan_mixture(1e9, 0.5, 1e6, tokens_per_fact=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["total_tokens", "knowledge_tokens", "web_pool_tokens",
                                      "tokens_per_fact"])
    def test_non_finite_token_count_is_refused_by_name(self, name, value):
        args = {"total_tokens": 1e9, "mixing_ratio": 0.1, "knowledge_tokens": 1e6, name: value}
        with pytest.raises(ValueError) as refused:
            plan_mixture(**args)
        assert "must be finite" in str(refused.value) and f"{name} " in str(refused.value)

    def test_json_fields(self):
        plan = plan_mixture(1e9, 0.25, 1e6, web_pool_tokens=1e12)
        assert set(plan.to_dict()) == {
            "total_tokens",
            "mixing_ratio",
            "knowledge_tokens",
            "web_pool_tokens",
            "knowledge_epochs",
            "web_sample_tokens",
            "per_fact_frequency",
        }


class TestSubsampleCorpus:
    def test_identity(self):
        records = list(range(100))
        assert subsample_corpus(records, 1.0, seed=1) == records

    def test_quarter_of_large_corpus_size(self):
        # round(0.25 * 1_280_000) = 320_000 records kept.
        assert int(round(0.25 * 1_280_000)) == 320_000
        records = list(range(1000))
        kept = subsample_corpus(records, 0.25, seed=7)
        assert len(kept) == 250

    def test_deterministic_and_order_preserving(self):
        records = list(range(500))
        a = subsample_corpus(records, 0.3, seed=11)
        b = subsample_corpus(records, 0.3, seed=11)
        assert a == b
        assert a == sorted(a)

    def test_ratio_validation(self):
        with pytest.raises(ValueError, match="keep_ratio"):
            subsample_corpus([1, 2], 0.0, seed=1)


class TestCkmAugment:
    def test_zero_ratio_empty(self):
        records = generate_synbio(5, seed=1)
        texts, original, compact, realized = ckm_augment(records, 0.0, seed=2)
        assert texts == []
        assert compact == 0
        assert realized == 0.0
        assert original > 0

    def test_budget_within_one_tuple(self):
        records = generate_synbio(20, seed=3)
        for tau in (0.1, 0.3, 0.6):
            texts, original, compact, realized = ckm_augment(records, tau, seed=4)
            assert compact >= tau * original
            last = whitespace_tokens(texts[-1])
            assert compact - last < tau * original
            assert realized == pytest.approx(compact / original)

    def test_tuple_format(self):
        records = generate_synbio(2, seed=5)
        texts, *_ = ckm_augment(records, 0.2, seed=6)
        for t in texts:
            assert t.startswith("Bio: N ")
            assert " B " in t and " O " in t

    def test_flip_frequency(self):
        records = generate_synbio(30, seed=7)
        texts, *_ = ckm_augment(records, 90.0, seed=8)
        assert len(texts) >= 10_000
        b_first = sum(t.index(" B ") < t.index(" O ") for t in texts)
        frac = b_first / len(texts)
        sigma = math.sqrt(0.25 / len(texts))
        assert abs(frac - 0.5) <= 5 * sigma

    def test_deterministic(self):
        records = generate_synbio(4, seed=9)
        assert ckm_augment(records, 0.5, seed=10) == ckm_augment(records, 0.5, seed=10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flips_match_numpy_generator(self, seed):
        # The written-out flips against the Generator draws they stand for,
        # over several blocks of 1,024 flips.
        records = generate_synbio(40, seed=3)
        texts, *_ = ckm_augment(records, 60.0, seed)
        assert len(texts) > 3 * 1024
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11, 0)))
        for i, (text, flip) in enumerate(zip(texts, rng.integers(0, 2, size=len(texts)))):
            record = records[i % len(records)]
            birth = f"B {record.attribute_values['birth_date']}"
            work = f"O {record.attribute_values['employer']}"
            first, second = (work, birth) if flip else (birth, work)
            assert text == f"Bio: N {record.full_name} {first} {second}"

    @pytest.mark.parametrize("ratio", [math.inf, math.nan, -0.5])
    def test_ratio_outside_the_domain_is_refused(self, ratio):
        with pytest.raises(ValueError, match="^ckm_ratio must be finite and >= 0"):
            ckm_augment(generate_synbio(2, seed=1), ratio, seed=2)


class TestRecordSerialization:
    def test_round_trip(self):
        record = generate_synbio(1, seed=21)[0]
        doc = record_to_dict(record)
        assert set(doc) == {"name", "attrs", "pronoun"}
        assert record_from_dict(doc) == record
        assert record_from_dict(json.loads(json.dumps(doc))) == record

    @pytest.mark.parametrize(
        "field, value",
        [("name", 5), ("name", {"a": 1}), ("pronoun", None), ("major", None), ("employer", 3.5)],
    )
    def test_non_string_field_is_refused_naming_it(self, field, value):
        doc = record_to_dict(generate_synbio(1, seed=21)[0])
        if field in ATTRIBUTE_ORDER:
            doc["attrs"][field], path = value, f"attrs.{field}"
        else:
            doc[field], path = value, field
        message = f"record field {path} must be a string, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record_from_dict(doc)

    def test_missing_attribute_rejected(self):
        with pytest.raises(ValueError, match="missing attributes"):
            BiographyRecord(full_name="A B C", attribute_values={}, pronoun="their")
