"""Write, or check, the table behind mixcap's correctly rounded t quantile.

``mixcap.analysis._t_quantile_975(dof)`` returns the 0.975 quantile of
Student's t with dof degrees of freedom, correctly rounded to a float, where
the probability P is the binary double 0.975. For dof 1..N0 it reads
``src/mixcap/data/t_quantile_975.json``. Past N0 it sums the Cornish-Fisher
series (Abramowitz and Stegun 26.7.5; Hill, "Algorithm 396: Student's
t-quantiles", CACM 13(10), 1970) in exact rationals and rounds once. N0 is
the last dof up to LIMIT at which that rounded series misses the correctly
rounded quantile.

A float x is the correctly rounded quantile when the t CDF lies below P at
the midpoint between x and the float below it, and above P at the midpoint
between x and the float above it. The CDF comes from mpmath's regularised
incomplete beta function at 50 digits, F(t) = 1/2 + I_y(1/2, dof/2) / 2 with
y = t**2 / (dof + t**2). A midpoint whose CDF lies within 1e-40 of P stops
the run as undecided.

    python tools/t_quantile_table.py           # write the table and report N0
    python tools/t_quantile_table.py --check   # check, write nothing

Both modes also check the series coefficients in ``analysis`` against
mpmath. They run one process per CPU; ``--check`` took 27 s on two cores.
Needs mpmath.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys
import time
from decimal import Context, Decimal
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mixcap import analysis  # noqa: E402

TABLE = ROOT / "src" / "mixcap" / "data" / "t_quantile_975.json"
LIMIT = 100_000
SPOTS = (10**6, 10**7, 10**9, 10**12)
DIGITS = 50
UNDECIDED = mp.mpf(10) ** -40

mp.mp.dps = DIGITS
P = mp.mpf(0.975)  # exactly the binary double
HALF = mp.mpf(1) / 2


def cdf_excess(dof: int, t) -> mp.mpf:
    """F(t) - P for Student's t with dof degrees of freedom, at t > 0."""
    t = mp.mpf(t)
    y = t * t / (dof + t * t)
    return mp.betainc(HALF, mp.mpf(dof) / 2, 0, y, regularized=True) / 2 - (P - HALF)


def _midpoint_excess(dof: int, x: float, toward: float) -> mp.mpf:
    excess = cdf_excess(dof, (mp.mpf(x) + mp.mpf(math.nextafter(x, toward))) / 2)
    if abs(excess) < UNDECIDED:
        raise ArithmeticError(f"dof {dof}: the midpoint next to {x!r} is undecided")
    return excess


def correctly_rounded(dof: int, x: float) -> tuple[float, int]:
    """The correctly rounded quantile, found by stepping from x, and the steps taken."""
    steps = 0
    while True:
        if _midpoint_excess(dof, x, math.inf) < 0:
            x = math.nextafter(x, math.inf)
        elif _midpoint_excess(dof, x, -math.inf) > 0:
            x = math.nextafter(x, -math.inf)
        else:
            return x, steps
        steps += 1


def series_coefficients() -> tuple[str, ...]:
    """The series terms g_0..g_5 at z = Phi^-1(P), each to 40 decimal places."""
    with mp.workdps(DIGITS + 10):
        z = mp.sqrt(2) * mp.erfinv(2 * P - 1)
        polynomials = (  # coefficients of z, z**3, z**5, ...; then the divisor
            ((1,), 1),
            ((1, 1), 4),
            ((3, 16, 5), 96),
            ((-15, 17, 19, 3), 384),
            ((-945, -1920, 1482, 776, 79), 92160),
            ((17955, -765, -1782, 930, 339, 27), 368640),
        )
        terms = (sum(c * z ** (2 * i + 1) for i, c in enumerate(cs)) / d for cs, d in polynomials)
        places = Context(prec=DIGITS)
        return tuple(str(Decimal(mp.nstr(g, DIGITS)).quantize(Decimal("1e-40"), context=places))
                     for g in terms)


def _solve(dof: int) -> tuple[float, float]:
    """(correctly rounded quantile, rounded series) at dof."""
    series = analysis._t_series_975(dof)
    guess = series if dof >= 100 else float(mp.findroot(lambda t: cdf_excess(dof, t), series))
    return correctly_rounded(dof, guess)[0], series


def _steps(dof: int) -> int:
    return correctly_rounded(dof, analysis._t_quantile_975(dof))[1]


def _check_coefficients() -> None:
    expected = series_coefficients()[: len(analysis._T975_SERIES)]
    if analysis._T975_SERIES != expected:
        sys.exit(f"analysis._T975_SERIES differs from mpmath's {expected}")


def write_table() -> None:
    _check_coefficients()
    start = time.perf_counter()
    with multiprocessing.get_context("spawn").Pool() as pool:
        solved = pool.map(_solve, range(1, LIMIT + 1), chunksize=500)
    misses = [dof for dof, (exact, series) in enumerate(solved, 1) if exact != series]
    n0 = misses[-1] if misses else 0
    TABLE.write_text("[\n" + ",\n".join(repr(exact) for exact, _ in solved[:n0]) + "\n]\n")
    print(f"wrote {TABLE.relative_to(ROOT)}: dof 1..{n0:,}; the series through "
          f"dof**-{len(analysis._T975_SERIES) - 1} misrounds at {len(misses):,} dofs in 1..{LIMIT:,}, the last at {n0:,} "
          f"({time.perf_counter() - start:.0f} s)")


def check() -> None:
    _check_coefficients()
    start = time.perf_counter()
    dofs = [*range(1, LIMIT + 1), *SPOTS]
    with multiprocessing.get_context("spawn").Pool() as pool:
        steps = pool.map(_steps, dofs, chunksize=500)
    wrong = [dof for dof, s in zip(dofs, steps) if s]
    n0 = len(analysis._t_table())
    if wrong:
        sys.exit(f"not correctly rounded at {len(wrong):,} dofs, the first {wrong[:10]}")
    print(f"correctly rounded at all {len(dofs):,} dofs checked (1..{LIMIT:,}, "
          f"{', '.join(f'1e{len(str(s)) - 1}' for s in SPOTS)}): table for 1..{n0:,}, the "
          f"series through dof**-{len(analysis._T975_SERIES) - 1} past it; coefficients match mpmath "
          f"({time.perf_counter() - start:.0f} s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="check the quantile; write nothing")
    args = parser.parse_args()
    (check if args.check else write_table)()


if __name__ == "__main__":
    main()
