"""Self-tests of the benchmark's reference solver and checks; no mixcap needed.

    python3 bench/selftest.py

1. The reference solver agrees with exhaustive vertex enumeration on small
   universes, tabulated (exactly, in rational arithmetic) and power-law.
2. Each check accepts a right output and rejects a deliberately wrong one.

Exits 1 on the first disagreement.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import numpy as np

import checks
import inputs
import reference as ref


def _tabulated_loss(points, m):
    for (m0, f0), (m1, f1) in zip(points, points[1:]):
        if m <= m1:
            return f0 + (f1 - f0) * (m - m0) / (m1 - m0)
    return points[-1][1]


def enumerate_vertices(p, h, r, web, capacity):
    """(best loss, largest optimal m1) over every vertex of the allocation problem.

    A vertex learns a subset of facts fully and gives what is left either to
    one fractional fact or to the web. With a tabulated web the fractional
    fact leaves the web on a breakpoint (exact, rational); with a power law
    it leaves the web where the web's marginal equals the fact's worth.
    Nothing here assumes the greedy order the reference solver uses.
    """
    k = len(p)
    exact = isinstance(web, ref.Tabulated)
    num = Fraction if exact else float
    P, H, R, M = [num(x) for x in p], [num(x) for x in h], num(r), num(capacity)
    points = None
    if exact:
        # The curve through the first point with the segments' floating-point
        # marginals, which is the curve both mixcap and the reference use;
        # the tie case 0.3 = 30/100 is a tie only in that arithmetic.
        points = [(Fraction(web.points[0][0]), Fraction(web.points[0][1]))]
        for cap, marginal in zip(web.caps[1:].tolist(), web.marginals.tolist()):
            last_cap, last_loss = points[-1]
            points.append((Fraction(cap), last_loss - Fraction(marginal) * (Fraction(cap) - last_cap)))

    def web_loss(m2):
        return _tabulated_loss(points, m2) if exact else web.loss(float(m2))

    def objective(a, m2):
        return R * sum(pk * (hk - ak) for pk, hk, ak in zip(P, H, a)) + (1 - R) * web_loss(m2)

    candidates = []
    for subset in itertools.product((0, 1), repeat=k):
        full = sum(H[i] for i in range(k) if subset[i])
        if full > M:
            continue
        base = [H[i] if subset[i] else num(0) for i in range(k)]
        if M - full > 0 or exact:
            candidates.append((base, M - full))
        for j in range(k):
            if subset[j]:
                continue
            if exact:
                stops = [m for m, _ in points]
            else:
                stops = [float(web.m0(R * P[j] / (1 - R)))]
            for m2 in stops:
                a_j = M - full - m2
                if 0 <= a_j <= H[j] and m2 >= 0:
                    a = list(base)
                    a[j] = a_j
                    candidates.append((a, m2))
    scored = [(objective(a, m2), sum(a)) for a, m2 in candidates if exact or m2 > 0]
    best = min(s for s, _ in scored)
    tol = 0 if exact else 1e-13 * abs(best)
    return float(best), float(max(m1 for s, m1 in scored if s <= best + tol))


def random_tabulated(rng):
    """Convex, non-increasing, all-dyadic points starting at capacity 0."""
    widths = [2 ** int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 5)))]
    marginals = sorted((int(m) / 64 for m in rng.choice(np.arange(1, 64), len(widths), replace=False)), reverse=True)
    points, cap, loss = [(0.0, 100.0)], 0.0, 100.0
    for width, marginal in zip(widths, marginals):
        cap, loss = cap + width, loss - marginal * width
        points.append((cap, loss))
    return ref.Tabulated(points=tuple(points))


def test_reference(trials: int = 300) -> None:
    rng = np.random.default_rng(0)
    for trial in range(trials):
        k = int(rng.integers(1, 6))
        if trial % 2 == 0:
            web = random_tabulated(rng)
            p = [int(x) / 256 for x in rng.integers(1, 256 // k, k)]
            # Every third case puts one fact exactly on a segment's marginal.
            if trial % 3 == 0:
                p[0] = float(web.marginals[int(rng.integers(len(web.marginals)))])
            h = [float(x) for x in rng.integers(1, 33, k)]
            r = 0.5
            capacity = float(rng.integers(1, int(web.caps[-1] + sum(h)) + 8))
        else:
            web = ref.PowerLaw(c=1.0, a=float(10 ** rng.uniform(0, 3)), alpha=float(rng.uniform(0.1, 0.9)))
            raw = rng.random(k) + 0.01
            p = (raw / raw.sum() * rng.uniform(0.1, 1.0)).tolist()
            h = rng.uniform(1.0, 50.0, k).tolist()
            r = float(rng.uniform(0.01, 0.9))
            capacity = float(10 ** rng.uniform(0, 4))
        solution = ref.solve(p, h, r, web, capacity)
        best, largest = enumerate_vertices(p, h, r, web, capacity)
        ok = checks.close(solution.mixture_loss, best, 1e-12) and checks.close(solution.m1, largest, 1e-9)
        if not ok:
            raise AssertionError(
                f"trial {trial}: reference m1={solution.m1!r} loss={solution.mixture_loss!r}, "
                f"enumeration m1={largest!r} loss={best!r} (p={p}, h={h}, r={r}, M={capacity}, web={web})"
            )
    for points, facts, capacity in inputs.TIE_CASES:
        web = ref.Tabulated(points=tuple((float(m), float(f)) for m, f in points))
        p, h = [f[0] for f in facts], [f[1] for f in facts]
        _, largest = enumerate_vertices(p, h, 0.5, web, capacity)
        assert ref.solve(p, h, 0.5, web, capacity).m1 == largest, (points, facts)


def rejects(name, check, good, bad, error=checks.CheckFailed) -> None:
    check(*good)
    try:
        check(*bad)
    except error:
        return
    raise AssertionError(f"{name} accepted a wrong output")


def test_checks() -> None:
    web = ref.PowerLaw(c=1.0, a=50.0, alpha=0.4)
    p = np.array([0.3, 0.2, 0.1, 0.05, 0.02])
    h = np.array([10.0, 12.0, 8.0, 20.0, 15.0])
    r, capacity = 0.2, 150.0
    sol = ref.solve(p, h, r, web, capacity)
    k = int(np.count_nonzero(sol.learned == 1.0))
    assert 0 < k < len(p) - 1, sol.learned
    shifted = sol.learned.copy()
    shifted[k - 1], shifted[k + 1] = 0.0, 1.0  # one fact moved past the boundary
    two_fractional = sol.learned.copy()
    two_fractional[[0, len(p) - 1]] = 0.5

    rejects("strict_json", checks.strict_json, ['{"loss": 1.5}'], ['{"loss": NaN}'])
    rejects("csv header", checks.csv_rows, ["x,y\n1,2\n", ["x", "y"]], ["x,z\n1,2\n", ["x", "y"]])
    rejects("split sums", checks.split_sums, [sol.m1, sol.m2, capacity], [sol.m1, sol.m2 + 1e-6, capacity])
    rejects("loss", checks.matches, ["loss", sol.mixture_loss, sol.mixture_loss], ["loss", sol.mixture_loss * (1 + 1e-9), sol.mixture_loss])
    rejects("fractional", checks.at_most_one_fractional, [sol.learned], [two_fractional])
    rejects(
        "certificate", checks.certificate,
        [p, h, sol.learned, r, web, sol.m2, sol.mixture_loss], [p, h, shifted, r, web, sol.m2, sol.mixture_loss],
    )
    rejects("accuracy value", checks.accuracy_value, [sol.accuracy, h, sol.learned], [sol.accuracy + 1e-6, h, sol.learned])
    rejects("accuracy range", checks.accuracy_curve, [[0.0, 0.5, 1.0]], [[0.0, 0.5, 1.1]])
    rejects("accuracy monotone", checks.accuracy_curve, [[0.0, 0.5, 0.5]], [[0.0, 0.5, 0.5 - 1e-6]])
    rejects("tie rule", checks.largest_optimum, [50.0, 50.0], [20.0000000003, 50.0], checks.Fault)
    rejects("slope", checks.loglog_slope_near, [-1.29, -1.283], [-1.32, -1.283])
    fit = {"params": {"slope": -1.0}, "ci95": {"slope": [-1.1, -0.9]}}
    rejects("fit ci", checks.fit_covers, [fit, -1.05, -1.0], [fit, -1.2, -1.0])
    rejects("member", checks.member, [2.5, [1.0, 2.5]], [2.0, [1.0, 2.5]])
    rejects("bad input", checks.rejected, [2, "error: capacity must be finite", "capacity"], [0, "", "capacity"], checks.Fault)

    domains = {"city": frozenset({"Waco, TX", "Reno, NV"}), "major": frozenset({"Physics"})}
    doc = {"name": "Ann Lee Roe", "attrs": {"city": "Waco, TX", "major": "Physics"}, "pronoun": "her"}
    twin = {**doc, "attrs": {"city": "Reno, NV", "major": "Physics"}}
    stranger = {**doc, "name": "Bo Lee Roe", "attrs": {"city": "Paris", "major": "Physics"}}
    rejects("duplicate names", checks.records_valid, [[doc], domains, inputs.PRONOUNS], [[doc, twin], domains, inputs.PRONOUNS])
    rejects("domain", checks.records_valid, [[doc], domains, inputs.PRONOUNS], [[doc, stranger], domains, inputs.PRONOUNS])
    text = "Ann Lee Roe was born in Waco, TX. Ann Lee Roe has a degree in Physics."
    rejects("verbatim", checks.rendering_verbatim, [text, doc], [text.replace("Waco", "Wako"), doc])
    rejects("subsample count", checks.subsample_kept, [[0, 3, 7], 10, 0.3], [[0, 3], 10, 0.3])
    rejects("subsample order", checks.subsample_kept, [[0, 3, 7], 10, 0.3], [[0, 7, 3], 10, 0.3])
    texts = ["Bio: N Ann B May 01, 1990 O Acme"] * 3
    rejects("ckm budget", checks.ckm_budget, [texts, 60, 27, 0.4], [texts, 70, 27, 0.4])
    rejects("ckm count", checks.ckm_budget, [texts, 60, 27, 0.4], [texts, 60, 28, 0.4])
    plan = {"knowledge_epochs": 25.0, "web_sample_tokens": 900.0, "per_fact_frequency": 0.01}
    rejects("mix plan", checks.mix_plan, [plan, 1000.0, 0.1, 4.0], [plan, 1000.0, 0.1, 5.0])
    rejects("rerun", checks.identical, [b"ab", b"ab", "x"], [b"ab", b"ac", "x"])


def main() -> int:
    test_reference()
    test_checks()
    print("selftest passed: reference matches vertex enumeration; every check rejects a wrong output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
