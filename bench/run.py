"""mixcap benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload {cli_cold,sweep_hetero,paper_scale,corpus,all}
                         --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and imports mixcap from its ``src``. Set-up
is measured three times per run; then whole rounds of the workload run until
``--seconds`` have passed. With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics, from rounds that
alternate between traced and untraced so that the tracing overhead can be
reported. Each run also appends its result to bench/out/results.jsonl,
which bench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3
IMPORT_CODE = (
    "import sys, time; t = time.perf_counter(); import mixcap; "
    "sys.stdout.write(repr(time.perf_counter() - t))"
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cold_import_s(env: dict) -> float:
    """``import mixcap`` in a fresh interpreter, timed from inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout)


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, mc) -> dict:
    from harness import Recorder, Speed, Tally
    from workloads import WORKLOADS, Context

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work = OUT / f"work-{os.getpid()}-{name}"
    speed = Speed(env)
    workload = WORKLOADS[name](Context(root=ROOT, work=work, mc=mc, env=env, speed=speed))
    rec, tally = Recorder(), Tally(log)
    units: dict[bool, list[float]] = {False: [], True: []}
    setups = []
    try:
        workload.prepare(seed, tally)
        for _ in range(SETUP_REPS):
            before = speed.child()
            imported = cold_import_s(env)
            rec.samples["import.mixcap"].append(imported)
            setup = speed.scale_child(imported, before)
            before = speed.loop()
            start = perf_counter()
            workload.build(seed, rec)
            setups.append(setup + speed.scale(perf_counter() - start, before))
        start, rounds = perf_counter(), 0
        while rounds < 1 + trace or perf_counter() - start < seconds:
            rec.tracing = trace and rounds % 2 == 1
            with rec.span("bench.round"):
                units[rec.tracing].extend(workload.round(rec, tally))
            rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(values):
        return statistics.median(values) if values else 0.0

    if trace:
        traced_rounds = rounds // 2
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        values.update(workload.layers(rec))
        values["import.mixcap_s"] = median(rec.samples["import.mixcap"])
        values["src.lines"] = float(source_lines())
        for layer, busy in rec.self_times().items():
            values[f"self.{layer}_s"] = busy / traced_rounds
        untraced = median(units[False])
        values["trace.overhead_pct"] = 100.0 * (median(units[True]) / untraced - 1.0) if untraced else 0.0
        values["trace.spans"] = float(len(rec.spans))
        values["machine.loop_ms"] = 1000.0 * median(speed.loops)
        values["machine.child_ms"] = 1000.0 * median(speed.children)
        declared = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        spans = {"columns": ["name", "start", "end", "parent"], "spans": rec.spans}
        (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps(spans))
    else:
        values = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(children=workload.runs_children),
            "unit_ms": 1000.0 * median(units[False]),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": not tally.wrong, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def report(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"   {metric:<44} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "mixcap" / "__init__.py"
    if not package.is_file():
        log(f"error: no mixcap source at {package.relative_to(ROOT)}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mixcap

    if Path(mixcap.__file__).resolve() != package.resolve():
        log(f"error: imported mixcap from {mixcap.__file__}, not from this checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, mixcap)
        results[name] = result
        report(name, result)
        OUT.mkdir(exist_ok=True)
        with open(OUT / "results.jsonl", "a") as handle:
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
            handle.write(json.dumps({**record, "result": result}) + "\n")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
