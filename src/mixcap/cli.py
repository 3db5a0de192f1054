"""Command-line entry point: one binary, subcommand dispatch.

Parameters come from an optional JSON config file plus flags; a flag always
overrides the file value. All randomness flows from --seed, which generating
commands require outright (no wall-clock fallback), so rerunning any command
with the same config and seed produces byte-identical artifacts. Files are
written atomically (temp file + rename) to keep long sweeps restartable.

Exit codes: 0 success, 2 usage or validation failure, 1 internal error.
With --json-errors a machine-readable {"error": ...} object goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import analysis, corpus, simulator
from .allocator import full_threshold_report, optimal_allocation
from .universe import MixtureUniverse, mixture_from_dict, web_curve_from_dict
from .simulator import SubsetExperiment, SweepConfig

OUT_DIR_ENV = "MIXCAP_OUT_DIR"

_GENERATING_COMMANDS = {"synbio", "subsample", "ckm"}


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_out(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name


def _load_config(args) -> dict:
    if not args.config:
        return {}
    with open(args.config) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _param(config: dict, flag_value, name: str, default=None, required: bool = False):
    """Flag overrides config; config overrides default."""
    if flag_value is not None:
        return flag_value
    if name in config:
        return config[name]
    if required:
        raise ValueError(f"missing required parameter '{name}' (config key or flag)")
    return default


def _require_format(args, allowed: tuple[str, ...]) -> str:
    fmt = args.format or allowed[0]
    if fmt not in allowed:
        raise ValueError(
            f"format '{fmt}' is not supported by this command (allowed: {', '.join(allowed)})"
        )
    return fmt


def _require_seed(args, config: dict) -> int:
    seed = _param(config, args.seed, "seed")
    if seed is None:
        raise ValueError(
            "--seed is required for generating commands; wall-clock seeding is not supported"
        )
    return int(seed)


def _mixture_from(config: dict, args) -> MixtureUniverse:
    doc = _param(config, None, "mixture", required=True)
    mixture = mixture_from_dict(doc)
    ratio = getattr(args, "ratio", None)
    if ratio is not None:
        mixture = replace(mixture, mixing_ratio=float(ratio))
    return mixture


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def cmd_allocate(args) -> None:
    config = _load_config(args)
    _require_format(args, ("json",))
    mixture = _mixture_from(config, args)
    capacity = float(_param(config, args.capacity, "capacity", required=True))
    alloc = optimal_allocation(mixture, capacity)
    out = _resolve_out(args, "allocation.json")
    _atomic_write(out, _json_text(alloc.to_dict()))


def cmd_thresholds(args) -> None:
    config = _load_config(args)
    _require_format(args, ("json",))
    mixture = _mixture_from(config, args)
    capacity = _param(config, args.capacity, "capacity")
    bits_per_param = float(
        _param(config, args.bits_per_param, "bits_per_param", default=2.0)
    )
    if not (math.isfinite(bits_per_param) and bits_per_param > 0.0):
        raise ValueError(f"bits_per_param must be finite and > 0, got {bits_per_param}")
    units = _param(config, args.units, "units", default="bits")
    if units not in ("bits", "params"):
        raise ValueError(f"units must be 'bits' or 'params', got {units!r}")
    capacity_bits = None
    if capacity is not None:
        capacity_bits = float(capacity)
        if units == "params":
            capacity_bits *= bits_per_param
    report = full_threshold_report(mixture, capacity_bits)
    doc = report.to_dict()
    if units == "params":
        for key in ("m_lower", "m_upper", "m_asymptotic"):
            if doc[key] is not None:
                doc[key] = doc[key] / bits_per_param
    doc["units"] = "parameters" if units == "params" else "bits"
    doc["bits_per_param"] = bits_per_param
    out = _resolve_out(args, "thresholds.json")
    _atomic_write(out, _json_text(doc))


def cmd_sweep(args) -> None:
    config = _load_config(args)
    _require_format(args, ("csv",))
    mixture = _mixture_from(config, args)
    axis = _param(config, args.axis, "axis", required=True)
    grid = _param(config, None, "grid", required=True)
    capacity = _param(config, args.capacity, "capacity")
    target = float(_param(config, args.target, "accuracy_target", default=0.8))
    sweep_config = SweepConfig(
        mixture=mixture,
        sweep_axis=axis,
        grid=tuple(grid),
        accuracy_target=target,
        total_capacity=None if capacity is None else float(capacity),
    )
    rows = simulator.sweep(sweep_config)
    out = _resolve_out(args, "sweep.csv")
    _atomic_write(out, simulator.sweep_csv(rows))
    # Sidecar threshold report for the swept configuration.
    try:
        report = full_threshold_report(
            mixture, None if capacity is None else float(capacity)
        )
        sidecar = report.to_dict()
    except ValueError as exc:
        sidecar = {"error": str(exc)}
    _atomic_write(out.with_name(out.stem + "_thresholds.json"), _json_text(sidecar))


def cmd_subsets(args) -> None:
    config = _load_config(args)
    _require_format(args, ("csv",))
    kwargs = {}
    for key in (
        "group_count",
        "group_size",
        "powerlaw_exponent",
        "mixing_ratio",
        "capacity_grid",
        "accuracy_target",
        "entropy_per_fact",
    ):
        if key in config:
            kwargs[key] = config[key]
    if "capacity_grid" in kwargs:
        kwargs["capacity_grid"] = tuple(kwargs["capacity_grid"])
    if "web" in config:
        kwargs["web_curve"] = web_curve_from_dict(config["web"])
    exp = SubsetExperiment(**kwargs)
    results = simulator.run_subset_experiment(exp)
    out = _resolve_out(args, "subsets.csv")
    _atomic_write(out, simulator.subset_long_csv(results, exp))
    _atomic_write(
        out.with_name(out.stem + "_thresholds" + out.suffix),
        simulator.subset_thresholds_csv(results),
    )


def cmd_synbio(args) -> None:
    config = _load_config(args)
    fmt = _require_format(args, ("jsonl", "json"))
    seed = _require_seed(args, config)
    count = int(_param(config, args.count, "count", required=True))
    records = corpus.generate_synbio(count, seed)
    docs = [corpus.record_to_dict(r) for r in records]
    out = _resolve_out(args, "synbio.jsonl" if fmt == "jsonl" else "synbio.json")
    if fmt == "jsonl":
        text = "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
    else:
        text = _json_text(docs)
    _atomic_write(out, text)
    if args.render_out:
        lines = []
        for i, record in enumerate(records):
            lines.append(corpus.render_exposure(record, corpus.render_seed(seed, i)))
        _atomic_write(Path(args.render_out), "\n".join(lines) + "\n")


def _read_records(path: str) -> list:
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(corpus.record_from_dict(json.loads(line)))
    return records


def cmd_mixplan(args) -> None:
    config = _load_config(args)
    _require_format(args, ("json",))
    total = float(_param(config, args.total_tokens, "total_tokens", required=True))
    ratio = float(_param(config, args.ratio, "mixing_ratio", required=True))
    knowledge = float(
        _param(config, args.knowledge_tokens, "knowledge_tokens", required=True)
    )
    pool = _param(config, args.web_pool_tokens, "web_pool_tokens")
    fact_count = int(_param(config, args.fact_count, "fact_count", default=1))
    tokens_per_fact = _param(config, args.tokens_per_fact, "tokens_per_fact")
    if tokens_per_fact is None and args.records:
        # Measure the mean rendered exposure length as the per-fact token cost.
        seed = _require_seed(args, config)
        records = _read_records(args.records)
        if not records:
            raise ValueError("records file is empty; cannot measure tokens_per_fact")
        total_tokens = 0
        for i, record in enumerate(records):
            total_tokens += corpus.whitespace_tokens(
                corpus.render_exposure(record, corpus.render_seed(seed, i))
            )
        tokens_per_fact = total_tokens / len(records)
    if tokens_per_fact is None:
        tokens_per_fact = 1.0
    plan = corpus.plan_mixture(
        total_tokens=total,
        mixing_ratio=ratio,
        knowledge_tokens=knowledge,
        web_pool_tokens=None if pool is None else float(pool),
        fact_count=fact_count,
        tokens_per_fact=float(tokens_per_fact),
    )
    out = _resolve_out(args, "mixplan.json")
    _atomic_write(out, _json_text(plan.to_dict()))


def cmd_subsample(args) -> None:
    config = _load_config(args)
    fmt = _require_format(args, ("jsonl",))
    seed = _require_seed(args, config)
    keep = float(_param(config, args.keep_ratio, "keep_ratio", required=True))
    if not args.records:
        raise ValueError("--records is required")
    records = _read_records(args.records)
    kept = corpus.subsample_corpus(records, keep, seed)
    out = _resolve_out(args, "subsample.jsonl")
    text = "".join(
        json.dumps(corpus.record_to_dict(r), sort_keys=True) + "\n" for r in kept
    )
    _atomic_write(out, text)


def cmd_ckm(args) -> None:
    config = _load_config(args)
    _require_format(args, ("jsonl",))
    seed = _require_seed(args, config)
    ratio = float(_param(config, args.ckm_ratio, "ckm_ratio", required=True))
    if not args.records:
        raise ValueError("--records is required")
    records = _read_records(args.records)
    texts, original, compact, realized = corpus.ckm_augment(records, ratio, seed)
    out = _resolve_out(args, "ckm.txt")
    _atomic_write(out, "".join(t + "\n" for t in texts))
    summary = {
        "requested_ratio": ratio,
        "original_tokens": original,
        "compact_tokens": compact,
        "realized_ratio": realized,
        "emissions": len(texts),
    }
    sys.stdout.write(_json_text(summary))


def cmd_estimate(args) -> None:
    config = _load_config(args)
    _require_format(args, ("json",))
    if not args.observations:
        raise ValueError("--observations is required")
    target = float(
        _param(config, args.target, "accuracy_target", default=analysis.DEFAULT_ACCURACY_TARGET)
    )
    max_failures = int(
        _param(config, args.max_failures, "max_failures", default=analysis.DEFAULT_MAX_FAILURES)
    )
    obs = analysis.read_observations_csv(args.observations)
    threshold = analysis.estimate_threshold_popularity(obs, target, max_failures)
    out = _resolve_out(args, "threshold.json")
    _atomic_write(
        out,
        _json_text(
            {
                "threshold_popularity": threshold,
                "accuracy_target": target,
                "max_failures": max_failures,
                "n": len(obs),
            }
        ),
    )


def _read_points(path: str) -> list[tuple[float, float]]:
    import csv as _csv

    points = []
    with open(path, newline="") as handle:
        reader = _csv.DictReader(handle)
        if reader.fieldnames is None or not {"x", "y"} <= set(reader.fieldnames):
            raise ValueError("points CSV needs an 'x,y' header")
        for row in reader:
            points.append((float(row["x"]), float(row["y"])))
    return points


def cmd_fit(args) -> None:
    config = _load_config(args)
    _require_format(args, ("json",))
    if not args.points:
        raise ValueError("--points is required")
    model = _param(config, args.model, "model", required=True)
    fitters = {
        "exp": analysis.fit_exponential,
        "power": analysis.fit_power_law,
        "loglog": analysis.fit_loglog,
    }
    if model not in fitters:
        raise ValueError(f"unknown model '{model}' (choose from exp, power, loglog)")
    fit = fitters[model](_read_points(args.points))
    out = _resolve_out(args, "fit.json")
    _atomic_write(out, _json_text(fit.to_dict()))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, help="64-bit master seed")
    sub.add_argument("--out", help="output path (default: $MIXCAP_OUT_DIR or cwd)")
    sub.add_argument("--format", choices=["csv", "json", "jsonl"])
    sub.add_argument(
        "--json-errors",
        action="store_true",
        help="emit a machine-readable error object on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcap",
        description="Capacity allocation, phase-transition thresholds, and "
        "synthetic corpora for data mixing studies",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("allocate", help="optimal capacity split for a mixture")
    p.add_argument("--capacity", type=float)
    p.add_argument("--ratio", type=float, help="override the mixture's mixing ratio")
    _add_common(p)
    p.set_defaults(handler=cmd_allocate)

    p = commands.add_parser("thresholds", help="phase-transition threshold report")
    p.add_argument("--capacity", type=float)
    p.add_argument("--ratio", type=float)
    p.add_argument("--bits-per-param", dest="bits_per_param", type=float)
    p.add_argument("--units", choices=["bits", "params"])
    _add_common(p)
    p.set_defaults(handler=cmd_thresholds)

    p = commands.add_parser("sweep", help="accuracy/loss sweep along one axis")
    p.add_argument("--axis", choices=["model_size", "mixing_ratio"])
    p.add_argument("--capacity", type=float, help="fixed capacity for mixing_ratio sweeps")
    p.add_argument("--target", type=float, help="accuracy target")
    p.add_argument("--ratio", type=float)
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = commands.add_parser("subsets", help="power-law subset experiment")
    _add_common(p)
    p.set_defaults(handler=cmd_subsets)

    p = commands.add_parser("synbio", help="generate synthetic biographies")
    p.add_argument("--count", type=int)
    p.add_argument("--render-out", dest="render_out", help="also write rendered exposures")
    _add_common(p)
    p.set_defaults(handler=cmd_synbio)

    p = commands.add_parser("mixplan", help="token accounting for a data mixture")
    p.add_argument("--total-tokens", dest="total_tokens", type=float)
    p.add_argument("--ratio", type=float)
    p.add_argument("--knowledge-tokens", dest="knowledge_tokens", type=float)
    p.add_argument("--web-pool-tokens", dest="web_pool_tokens", type=float)
    p.add_argument("--fact-count", dest="fact_count", type=int)
    p.add_argument("--tokens-per-fact", dest="tokens_per_fact", type=float)
    p.add_argument("--records", help="JSONL corpus to measure tokens per fact from")
    _add_common(p)
    p.set_defaults(handler=cmd_mixplan)

    p = commands.add_parser("subsample", help="random subsample of a corpus")
    p.add_argument("--records", help="input JSONL corpus")
    p.add_argument("--keep-ratio", dest="keep_ratio", type=float)
    _add_common(p)
    p.set_defaults(handler=cmd_subsample)

    p = commands.add_parser("ckm", help="compact knowledge mixing texts")
    p.add_argument("--records", help="input JSONL corpus")
    p.add_argument("--ckm-ratio", dest="ckm_ratio", type=float)
    _add_common(p)
    p.set_defaults(handler=cmd_ckm)

    p = commands.add_parser("estimate", help="threshold popularity from observations")
    p.add_argument("--observations", help="CSV with header popularity,correct")
    p.add_argument("--target", type=float)
    p.add_argument("--max-failures", dest="max_failures", type=int)
    _add_common(p)
    p.set_defaults(handler=cmd_estimate)

    p = commands.add_parser("fit", help="fit a scaling-law curve to points")
    p.add_argument("--points", help="CSV with header x,y")
    p.add_argument("--model", help="exp | power | loglog")
    _add_common(p)
    p.set_defaults(handler=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        return 0
    except (ValueError, FileNotFoundError, KeyError) as exc:
        message = str(exc)
        if args.json_errors:
            sys.stderr.write(json.dumps({"error": message}) + "\n")
        else:
            sys.stderr.write(f"error: {message}\n")
        return 2
    except Exception as exc:  # internal failure
        if args.json_errors:
            sys.stderr.write(json.dumps({"error": f"internal: {exc}"}) + "\n")
        else:
            sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
