"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and match the package's documented
guarantees; nothing is calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest

from helpers import allocation_grid_oracle, make_mixture
from mixcap.allocator import (
    apply_ckm,
    apply_subsampling,
    full_threshold_report,
    optimal_allocation,
)
from mixcap.analysis import (
    AccuracyObservation,
    estimate_threshold_popularity,
    fit_exponential,
    fit_loglog,
    fit_power_law,
)
from mixcap.cli import main as cli_main
from mixcap.corpus import (
    ATTRIBUTES,
    RECORD_ENTROPY_BITS,
    generate_synbio,
    plan_mixture,
    record_to_dict,
)
from mixcap.simulator import SubsetExperiment, run_subset_experiment
from mixcap.universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    warmup_loss,
    web_marginal,
)
from test_analysis import suffix_scan_oracle


def _ok(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def _uniform_universe(rng):
    k = int(rng.integers(1, 40))
    p = float(rng.uniform(0.001, 1.0)) / k
    h_each = float(rng.uniform(0.1, 20.0))
    c = float(rng.uniform(0.0, 3.0))
    return KnowledgeUniverse(np.full(k, p), np.full(k, h_each), irreducible_loss=c)


def test_criterion_1_warmup_law():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        ku = _uniform_universe(rng)
        p = float(ku.p[0])
        c = ku.irreducible_loss
        h_tot = ku.h_tot
        m = float(rng.uniform(0.0, 2.0 * h_tot))
        expected = c + p * max(h_tot - m, 0.0)
        assert abs(warmup_loss(ku, m) - expected) <= 1e-12
        # Slope between two interior capacities equals -p.
        m1 = float(rng.uniform(0.0, 0.45)) * h_tot
        m2 = float(rng.uniform(0.55, 1.0)) * h_tot
        slope = (warmup_loss(ku, m2) - warmup_loss(ku, m1)) / (m2 - m1)
        assert slope == pytest.approx(-p, rel=1e-9)
    _ok(1, "warmup loss matches C + p*max(H_tot - M, 0) on 1000 random draws")


def test_criterion_2_allocation_optimality():
    rng = np.random.default_rng(102)
    for i in range(200):
        mix = make_mixture(rng, uniform=i % 2 == 0, tabulated=i % 4 == 0)
        m = float(rng.uniform(0.5, 3.0 * mix.knowledge.h_tot))
        alloc = optimal_allocation(mix, m)
        grid_best = allocation_grid_oracle(mix, m, n=1000)
        assert alloc.mixture_loss <= grid_best + 1e-6
    _ok(2, "allocation beats or ties the 1e-3 grid on 200 random mixtures")


def test_criterion_3_phase_transition_exactness():
    rng = np.random.default_rng(103)
    for _ in range(100):
        ku = _uniform_universe(rng)
        web = PowerLawCurve(
            floor=float(rng.uniform(0.0, 3.0)),
            amplitude=float(rng.uniform(1.0, 500.0)),
            exponent=float(rng.uniform(0.05, 0.95)),
        )
        mix = MixtureUniverse(
            knowledge=ku, web=web, mixing_ratio=float(rng.uniform(0.02, 0.98))
        )
        report = full_threshold_report(mix)
        h_tot = ku.h_tot
        for frac in (0.25, 0.7, 1.0):
            m = report.model_size_lower * frac
            if m <= 0.0:
                continue
            assert optimal_allocation(mix, m).knowledge_capacity <= 1e-9
        for frac in (1.0, 1.5, 4.0):
            m = report.model_size_upper * frac
            alloc = optimal_allocation(mix, m)
            assert abs(alloc.knowledge_capacity - h_tot) <= 1e-9
        # Closed form (A*alpha/t)^(1/(alpha+1)) against bisection on -F' = t.
        p = float(ku.p[0])
        t = mix.mixing_ratio * p / (1.0 - mix.mixing_ratio)
        lo, hi = 1e-12, 1e15
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if web_marginal(web, mid, "left") > t:
                lo = mid
            else:
                hi = mid
        bisected = math.sqrt(lo * hi)
        assert report.model_size_lower == pytest.approx(bisected, rel=1e-9)
    _ok(3, "theorem cases give m1 = 0 / H_tot exactly; m0 closed form matches bisection")


def test_criterion_4_exponent_law():
    exp = SubsetExperiment()  # 100 groups, exponent 1.5, r = 0.01
    assert exp.group_count == 100
    assert exp.powerlaw_exponent == 1.5
    assert exp.mixing_ratio == 0.01
    results = run_subset_experiment(exp)
    pts = [
        (r.capacity, r.threshold_frequency)
        for r in results
        if r.threshold_frequency is not None
    ]
    fit = fit_loglog(pts)
    target = -(exp.web_curve.exponent + 1.0)
    assert fit.params["slope"] == pytest.approx(target, rel=0.02)
    # Exponent helper: alpha = 0.283 predicts 1.283.
    mix = MixtureUniverse(
        knowledge=KnowledgeUniverse([0.01], [1.0]),
        web=PowerLawCurve(floor=1.0, amplitude=10.0, exponent=0.283),
        mixing_ratio=0.1,
    )
    assert full_threshold_report(mix).exponent == pytest.approx(1.283, abs=1e-12)
    _ok(
        4,
        f"subset experiment slope {fit.params['slope']:.4f} within 2% of {target}; "
        "alpha 0.283 -> exponent 1.283",
    )


def test_criterion_5_algorithm_equivalence():
    rng = np.random.default_rng(105)
    tied = 0
    for trial in range(1000):
        n = int(rng.integers(1, 80))
        if trial % 3 != 2:  # >= 30% tied-popularity instances
            xs = rng.integers(1, max(2, n // 3) + 1, size=n).astype(float).tolist()
        else:
            xs = np.round(rng.uniform(0.1, 1000.0, size=n), 6).tolist()
        if len(set(xs)) < len(xs):
            tied += 1
        ys = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(int).tolist()
        obs = [AccuracyObservation(x, bool(y)) for x, y in zip(xs, ys)]
        got = estimate_threshold_popularity(obs)  # library defaults 0.6 / 5
        assert got == suffix_scan_oracle(xs, ys, 0.6, 5)
    assert tied >= 300
    _ok(5, f"threshold scan matches the brute-force oracle on 1000 instances ({tied} tied)")


def test_criterion_6_fit_round_trips():
    rs = [0.3 + 0.05 * i for i in range(11)]
    exp_fit = fit_exponential([(r, math.exp(-0.25512 + 1.5137 / r)) for r in rs])
    assert exp_fit.params["logA"] == pytest.approx(-0.25512, abs=1e-9)
    assert exp_fit.params["B"] == pytest.approx(1.5137, abs=1e-9)
    assert exp_fit.r_squared == pytest.approx(1.0, abs=1e-12)

    pow_fit = fit_power_law(
        [(r, 0.098158 * r ** (-3.83878)) for r in (0.3, 0.4, 0.45, 0.5, 0.55)]
    )
    assert math.exp(pow_fit.params["logC"]) == pytest.approx(0.098158, abs=1e-9)
    assert pow_fit.params["D"] == pytest.approx(3.83878, abs=1e-9)
    assert pow_fit.r_squared == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(106)
    xs = np.geomspace(1.0, 1e3, 20)
    hits = 0
    for _ in range(1000):
        ys = 7.0 * xs ** (-1.283) * np.exp(rng.normal(0.0, 0.01, size=20))
        lo, hi = fit_loglog(list(zip(xs, ys))).ci95["slope"]
        hits += lo <= -1.283 <= hi
    assert hits / 1000 >= 0.93
    _ok(6, f"reference fits recovered to 1e-9; slope CI coverage {hits / 10:.1f}%")


def test_criterion_7_convexity_and_monotonicity():
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 500:
        mix = make_mixture(rng, uniform=True, tabulated=checked % 2 == 0)
        h_tot = mix.knowledge.h_tot
        m1, m2 = np.sort(rng.uniform(0.5, 3.0 * h_tot, size=2))
        if m2 - m1 < 1e-6:
            continue
        lam = float(rng.uniform(0.01, 0.99))
        mid = lam * m1 + (1 - lam) * m2
        f = lambda m: optimal_allocation(mix, float(m)).mixture_loss
        assert f(mid) <= lam * f(m1) + (1 - lam) * f(m2) + 1e-9
        assert f(m2) <= f(m1) + 1e-9
        checked += 1
    _ok(7, "mixture best-loss curve is midpoint-convex and non-increasing (500 triples)")


def test_criterion_8_strategy_math():
    rng = np.random.default_rng(108)
    for _ in range(50):
        k = int(rng.integers(2, 60)) * 2  # even so half the facts is exact
        tau = float(rng.uniform(0.05, 3.0))
        t_o = float(rng.uniform(20.0, 400.0))
        t_c = float(rng.uniform(1.0, 400.0))
        multiplier_bound = (1.0 + tau * t_o / t_c) / (1.0 + tau)
        # Frequency mass must stay feasible after both halving and CKM.
        budget = min(0.9, 0.45 / max(multiplier_bound, 1.0))
        p = float(rng.uniform(0.1, 1.0)) * budget / k
        mix = MixtureUniverse(
            knowledge=KnowledgeUniverse(
                np.full(k, p), [float(rng.uniform(0.5, 5.0)) for _ in range(k)]
            ),
            web=PowerLawCurve(
                floor=1.0,
                amplitude=float(rng.uniform(10.0, 200.0)),
                exponent=float(rng.uniform(0.1, 0.9)),
            ),
            mixing_ratio=0.1,
        )
        m = float(rng.uniform(1.2, 10.0)) * mix.knowledge.h_tot
        before = full_threshold_report(mix, m).mixing_ratio_asymptotic
        after = full_threshold_report(apply_subsampling(mix, 0.5), m).mixing_ratio_asymptotic
        assert abs(after - before / 2.0) <= 1e-9

        out = apply_ckm(mix, tau, t_o, t_c)
        expected = (1.0 + tau * t_o / t_c) / (1.0 + tau)
        got = float(out.knowledge.p[0]) / p
        assert got == pytest.approx(expected, rel=1e-12)
        if t_c < t_o:
            assert got > 1.0
    _ok(8, "subsampling halves the asymptotic ratio threshold; CKM multiplier exact")


def test_criterion_9_corpus_determinism_and_cardinalities():
    a = generate_synbio(2000, seed=424242)
    b = generate_synbio(2000, seed=424242)
    bytes_a = "\n".join(json.dumps(record_to_dict(r), sort_keys=True) for r in a).encode()
    bytes_b = "\n".join(json.dumps(record_to_dict(r), sort_keys=True) for r in b).encode()
    assert bytes_a == bytes_b

    sizes = {attr.name: len(attr.values) for attr in ATTRIBUTES}
    assert sizes == {
        "birth_date": 33600,
        "birth_city": 200,
        "university": 300,
        "major": 100,
        "employer": 263,
    }
    assert abs(
        RECORD_ENTROPY_BITS - sum(math.log2(len(attr.values)) for attr in ATTRIBUTES)
    ) <= 1e-9
    assert RECORD_ENTROPY_BITS == pytest.approx(45.59, abs=0.01)

    plan = plan_mixture(32e9, 0.1, 3.2e7)
    assert plan.knowledge_epochs == pytest.approx(100.0, rel=1e-12)
    _ok(9, "byte-reproducible corpus; domain sizes 33600/200/300/100/263; 100 epochs")


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    mix_doc = {
        "mixture": {
            "knowledge": {
                "facts": [{"p": 0.001, "h": 5.0} for _ in range(50)],
                "c1": 1.0,
            },
            "web": {"power_law": {"c": 1.0, "a": 100.0, "alpha": 0.5}},
            "r": 0.25,
        },
        "capacity": 300.0,
        "grid": [50.0, 200.0, 400.0],
        "axis": "model_size",
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(mix_doc))
    subsets_config = tmp_path / "subsets.json"
    subsets_config.write_text(
        json.dumps({"group_count": 4, "group_size": 2, "capacity_grid": [1e9, 4e9]})
    )
    records = tmp_path / "records.jsonl"
    assert cli_main(["synbio", "--count", "30", "--seed", "5", "--out", str(records)]) == 0
    obs = tmp_path / "obs.csv"
    obs.write_text("popularity,correct\n" + "".join(f"{i},{int(i > 6)}\n" for i in range(1, 15)))
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n" + "".join(f"{x},{7.0 * x ** -1.283}\n" for x in (1.0, 4.0, 9.0, 16.0)))

    def invocation(name, out_dir):
        out = out_dir / name
        argv = {
            "allocate": ["allocate", "--config", str(config), "--out", str(out) + ".json"],
            "thresholds": ["thresholds", "--config", str(config), "--out", str(out) + ".json"],
            "sweep": ["sweep", "--config", str(config), "--out", str(out) + ".csv"],
            "subsets": ["subsets", "--config", str(subsets_config), "--out", str(out) + ".csv"],
            "synbio": ["synbio", "--count", "25", "--seed", "9", "--out", str(out) + ".jsonl"],
            "mixplan": [
                "mixplan", "--total-tokens", "32e9", "--ratio", "0.1",
                "--knowledge-tokens", "3.2e7", "--fact-count", "320000",
                "--tokens-per-fact", "100", "--out", str(out) + ".json",
            ],
            "subsample": [
                "subsample", "--records", str(records), "--keep-ratio", "0.5",
                "--seed", "3", "--out", str(out) + ".jsonl",
            ],
            "ckm": [
                "ckm", "--records", str(records), "--ckm-ratio", "0.2",
                "--seed", "4", "--out", str(out) + ".txt",
            ],
            "estimate": ["estimate", "--observations", str(obs), "--out", str(out) + ".json"],
            "fit": [
                "fit", "--points", str(pts), "--model", "loglog",
                "--out", str(out) + ".json",
            ],
        }[name]
        return argv

    commands = [
        "allocate", "thresholds", "sweep", "subsets", "synbio",
        "mixplan", "subsample", "ckm", "estimate", "fit",
    ]
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    for out_dir in (run_a, run_b):
        out_dir.mkdir()
        for name in commands:
            assert cli_main([str(x) for x in invocation(name, out_dir)]) == 0, name
    files_a = sorted(p.relative_to(run_a) for p in run_a.iterdir())
    files_b = sorted(p.relative_to(run_b) for p in run_b.iterdir())
    assert files_a == files_b and len(files_a) >= 12  # sweep/subsets add sidecars
    for rel in files_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel

    # Validation failures exit 2 and name the violated parameter.
    capsys.readouterr()
    bad = json.loads(config.read_text())
    bad["mixture"]["r"] = 1.7
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps(bad))
    assert cli_main(["allocate", "--config", str(bad_config), "--out", str(tmp_path / "x.json")]) == 2
    assert "mixing_ratio" in capsys.readouterr().err
    assert cli_main(["synbio", "--count", "5", "--out", str(tmp_path / "y.jsonl")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert (
        cli_main(
            [
                "mixplan", "--total-tokens", "1e9", "--ratio", "0.1",
                "--knowledge-tokens", "1e6", "--web-pool-tokens", "1e8",
                "--out", str(tmp_path / "z.json"),
            ]
        )
        == 2
    )
    assert "(1-r)S" in capsys.readouterr().err
    _ok(10, "all ten subcommands byte-identical on rerun; validation exits name the parameter")
