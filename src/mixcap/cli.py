"""Command-line entry point: one binary, subcommand dispatch.

Parameters come from an optional JSON config file plus flags; a flag always
overrides the file value. Each parameter is declared once, as a row of
COMMANDS, and _params merges and checks every row in one pass, so config
values and flags follow the same rules. All randomness flows from --seed,
which generating commands require outright (no wall-clock fallback), so
rerunning any command with the same config and seed produces byte-identical
artifacts at any BLAS thread count: no result goes through a BLAS call.
Files are written atomically (temp file + rename) to keep long sweeps
restartable. Each handler imports the library modules it runs, so a command
loads only those and pays for no module, numpy or scipy it never calls.
Run as the program (argv None), main caps the OpenBLAS that numpy and scipy
load at one thread unless OPENBLAS_NUM_THREADS is set, so no command starts
a BLAS worker pool it never uses; called with an argv, and on import, it
leaves the environment alone. Run as the program, main also turns the cyclic
garbage collector off before a handler imports anything, and on the way out
freezes the heap and turns the collector back on. So no collection rescans
numpy's freshly imported objects while they load, and the collection at
interpreter shutdown skips them. This is safe because a command makes no
cyclic garbage that grows with its input: reference counting frees all it
makes but the argument parser and the closures of each indented JSON
encoder, a fixed few hundred objects. Called with an argv, main leaves the
collector alone.

Exit codes: 0 success, 2 usage or validation failure or a path that cannot
be read or written, 1 internal error.
With --json-errors a machine-readable {"error": ...} object goes to stderr,
for argparse usage errors as well.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from ._json import json_number

if TYPE_CHECKING:
    from .universe import MixtureUniverse

OUT_DIR_ENV = "MIXCAP_OUT_DIR"


def _atomic_write(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it to path.

    The temporary file is removed on any failure, and an OSError is raised
    again naming path alone, not the temporary file that is by then gone. A
    file where path's directory goes is reported as opening path reports
    it, Not a directory, not as mkdir's File exists on that file.
    """
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except FileExistsError:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path)) from None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_out(p, default_name: str, text: str) -> Path:
    """Write the command's main output to --out, else $MIXCAP_OUT_DIR/default_name."""
    out = Path(p.out) if p.out else Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name
    _atomic_write(out, text)
    return out


def _load_config(args) -> dict:
    if not args.config:
        return {}
    with open(args.config) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _jsonl_text(docs) -> str:
    # json.dumps builds an encoder per call; one encoder gives every line the same bytes.
    encode = json.JSONEncoder(sort_keys=True).encode
    return "".join(encode(d) + "\n" for d in docs)


# Parameter kinds: each returns its checked value or raises a ValueError
# naming the key. As in mixture documents, only JSON numbers are numbers:
# numeric strings and bools are refused, and so are non-finite values.


def _number(value, key: str) -> float:
    number = float(json_number(value, key))
    if not math.isfinite(number):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return number


def _capacity(value, key: str) -> float:
    capacity = _number(value, key)
    if capacity < 0.0:
        raise ValueError(f"{key} must be >= 0, got {capacity}")
    return capacity


def _integer(value, key: str) -> int:
    """An integer in the float range; an integral float such as 1e3 counts as one."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return json_number(value, key)


def _seed(value, key: str) -> int:
    seed = _integer(value, key)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{key} must be an integer in [0, 2**64), got {seed}")
    return seed


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _numbers(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON array of numbers, got {value!r}")
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(value))


def _mixture(value, key: str) -> MixtureUniverse:
    from .universe import mixture_from_dict

    return mixture_from_dict(value)


def _web(value, key: str):
    from .universe import web_curve_from_dict

    return web_curve_from_dict(value, key)


def integer(text: str) -> int | float:
    """Parse integer flag text; a float such as 1e3 is left for _integer to check."""
    try:
        return int(text)
    except ValueError:
        return float(text)


_FLAG_TYPES = {_number: float, _capacity: float, _integer: integer, _seed: integer}


class Param(NamedTuple):
    """One parameter; key is its config key (none if flag_only) and the name handlers read."""

    key: str
    kind: Callable
    flag: str | None = None
    default: object = None
    required: bool = False
    choices: tuple[str, ...] = ()
    help: str | None = None
    flag_only: bool = False


class Command(NamedTuple):
    handler: Callable
    help: str
    params: tuple[Param, ...]


# Kinds that parse a whole document, loading universe and numpy to do it.
_DOCUMENTS = (_mixture, _web)


def _params(args, config: dict) -> argparse.Namespace:
    """The command's parameters, each merged flag over config over default, and checked.

    Scalar rows are checked before document rows, so a bad scalar is
    refused before a document parse loads universe and numpy.
    """
    values = {"out": args.out}
    rows = COMMANDS[args.command].params
    for row in sorted(rows, key=lambda row: row.kind in _DOCUMENTS):
        value = getattr(args, row.key) if row.flag else None
        if value is None and not row.flag_only:
            value = config.get(row.key)
        if value is None:
            value = row.default
        if value is not None:
            value = row.kind(value, row.key)
            if row.choices and value not in row.choices:
                choices = ", ".join(row.choices)
                raise ValueError(f"{row.key} must be one of {choices}, got {value!r}")
        elif row.required:
            where = ([] if row.flag_only else ["config key"]) + ([row.flag] if row.flag else [])
            raise ValueError(f"missing required parameter '{row.key}' ({' or '.join(where)})")
        values[row.key] = value
    return argparse.Namespace(**values)


def _mixture_of(p) -> MixtureUniverse:
    """The config's mixture, its mixing ratio overridden by --ratio."""
    return p.mixture if p.ratio is None else replace(p.mixture, mixing_ratio=p.ratio)


# Command handlers: each takes the checked parameters from _params.


def _finite_web_loss(web_loss: float, what: str) -> None:
    """Refuse a capacity (named by what) whose solve leaves the web loss infinite."""
    if math.isinf(web_loss):
        raise ValueError(
            f"{what} leaves the web loss infinite: "
            "a power-law web loss diverges as its capacity goes to 0"
        )


def cmd_allocate(p) -> None:
    from .allocator import optimal_allocation

    alloc = optimal_allocation(_mixture_of(p), p.capacity)
    _finite_web_loss(alloc.web_loss, f"capacity {p.capacity}")
    _write_out(p, "allocation.json", _json_text(alloc.to_dict()))


def _threshold_report(mixture: MixtureUniverse, capacity, per_unit: float = 1.0) -> dict:
    """The threshold report at capacity units of per_unit bits (None: no capacity)."""
    from .allocator import full_threshold_report

    capacity_bits = None if capacity is None else capacity * per_unit
    if capacity_bits is not None and not 0.0 < capacity_bits < math.inf:
        raise ValueError(f"capacity must be > 0 and finite in bits, got {capacity}")
    return full_threshold_report(mixture, capacity_bits).to_dict()


def cmd_thresholds(p) -> None:
    mixture = _mixture_of(p)
    if p.bits_per_param <= 0.0:
        raise ValueError(f"bits_per_param must be > 0, got {p.bits_per_param}")
    # Model sizes are in bits, or in parameters of bits_per_param bits each.
    per_unit = p.bits_per_param if p.units == "params" else 1.0
    doc = _threshold_report(mixture, p.capacity, per_unit)
    for key in ("m_lower", "m_upper", "m_asymptotic"):
        if doc[key] is not None:
            doc[key] = doc[key] / per_unit
    doc["units"] = "parameters" if p.units == "params" else "bits"
    doc["bits_per_param"] = p.bits_per_param
    _write_out(p, "thresholds.json", _json_text(doc))


def cmd_sweep(p) -> None:
    from . import simulator

    mixture = _mixture_of(p)
    sweep_config = simulator.SweepConfig(
        mixture=mixture,
        sweep_axis=p.axis,
        grid=p.grid,
        total_capacity=p.capacity,
    )
    rows = simulator.sweep(sweep_config)
    on_grid = p.axis == "model_size"
    for row in rows:
        what = f"grid entry {row.axis_value}" if on_grid else f"capacity {p.capacity}"
        _finite_web_loss(row.web_loss, what)
    out = _write_out(p, "sweep.csv", simulator.sweep_csv(rows))
    # Sidecar threshold report for the swept configuration.
    try:
        sidecar = _threshold_report(mixture, p.capacity)
    except ValueError as exc:
        sidecar = {"error": str(exc)}
    _atomic_write(out.with_name(out.stem + "_thresholds.json"), _json_text(sidecar))


def cmd_subsets(p) -> None:
    from . import simulator

    names = {f.name for f in fields(simulator.SubsetExperiment)}
    settings = {k: v for k, v in vars(p).items() if k in names and v is not None}
    if p.web is not None:
        settings["web_curve"] = p.web
    exp = simulator.SubsetExperiment(**settings)
    results = simulator.run_subset_experiment(exp)
    out = _write_out(p, "subsets.csv", simulator.subset_long_csv(results, exp))
    _atomic_write(
        out.with_name(out.stem + "_thresholds" + out.suffix),
        simulator.subset_thresholds_csv(results),
    )


def cmd_synbio(p) -> None:
    from . import corpus

    records = corpus.generate_synbio(p.count, p.seed)
    docs = [corpus.record_to_dict(r) for r in records]
    text = _jsonl_text(docs) if p.format == "jsonl" else _json_text(docs)
    _write_out(p, f"synbio.{p.format}", text)
    if p.render_out:
        rendered = corpus.render_exposures(records, p.seed)
        _atomic_write(Path(p.render_out), "".join(t + "\n" for t in rendered))


def _read_records(path: str) -> list:
    """The records of a JSONL corpus; a bad line raises a ValueError naming it."""
    from . import corpus

    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            if line.strip():
                try:
                    records.append(corpus.record_from_dict(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path} line {number}: {exc}") from None
    return records


def cmd_mixplan(p) -> None:
    from . import corpus

    tokens_per_fact = p.tokens_per_fact
    if tokens_per_fact is None and p.records:
        # Measure the mean rendered exposure length as the per-fact token cost.
        if p.seed is None:
            raise ValueError("--seed is required to render the --records corpus")
        records = _read_records(p.records)
        if not records:
            raise ValueError("records file is empty; cannot measure tokens_per_fact")
        tokens_per_fact = sum(
            map(corpus.whitespace_tokens, corpus.render_exposures(records, p.seed))
        ) / len(records)
    plan = corpus.plan_mixture(
        total_tokens=p.total_tokens,
        mixing_ratio=p.mixing_ratio,
        knowledge_tokens=p.knowledge_tokens,
        web_pool_tokens=p.web_pool_tokens,
        fact_count=p.fact_count,
        tokens_per_fact=1.0 if tokens_per_fact is None else tokens_per_fact,
    )
    _write_out(p, "mixplan.json", _json_text(plan.to_dict()))


def cmd_subsample(p) -> None:
    from . import corpus

    kept = corpus.subsample_corpus(_read_records(p.records), p.keep_ratio, p.seed)
    _write_out(p, "subsample.jsonl", _jsonl_text(map(corpus.record_to_dict, kept)))


def cmd_ckm(p) -> None:
    from . import corpus

    texts, original, compact, realized = corpus.ckm_augment(
        _read_records(p.records), p.ckm_ratio, p.seed
    )
    _write_out(p, "ckm.txt", "".join(t + "\n" for t in texts))
    summary = {
        "requested_ratio": p.ckm_ratio,
        "original_tokens": original,
        "compact_tokens": compact,
        "realized_ratio": realized,
        "emissions": len(texts),
    }
    sys.stdout.write(_json_text(summary))


def cmd_estimate(p) -> None:
    from . import analysis

    # An absent flag and key take the library's defaults.
    target = analysis.DEFAULT_ACCURACY_TARGET if p.accuracy_target is None else p.accuracy_target
    failures = analysis.DEFAULT_MAX_FAILURES if p.max_failures is None else p.max_failures
    obs = analysis.read_observations_csv(p.observations)
    threshold = analysis.estimate_threshold_popularity(obs, target, failures)
    doc = {
        "threshold_popularity": threshold,
        "accuracy_target": target,
        "max_failures": failures,
        "n": len(obs),
    }
    _write_out(p, "threshold.json", _json_text(doc))


# Each fit model and the analysis function that fits it.
_FITTERS = {"exp": "fit_exponential", "power": "fit_power_law", "loglog": "fit_loglog"}


def cmd_fit(p) -> None:
    from . import analysis

    fit = getattr(analysis, _FITTERS[p.model])(analysis.read_points_csv(p.points))
    _write_out(p, "fit.json", _json_text(fit.to_dict()))


# The parameter table, and the parser built from it.

_MIXTURE = Param("mixture", _mixture, required=True)
_RATIO = Param("ratio", _number, "--ratio", help="override the mixture's mixing ratio",
               flag_only=True)
_RECORDS = Param("records", _string, "--records", required=True, help="input JSONL corpus",
                 flag_only=True)
_SEED = Param("seed", _seed, "--seed", required=True, help="64-bit master seed")

COMMANDS = {
    "allocate": Command(cmd_allocate, "optimal capacity split for a mixture", (
        _MIXTURE,
        Param("capacity", _capacity, "--capacity", required=True),
        _RATIO,
    )),
    "thresholds": Command(cmd_thresholds, "phase-transition threshold report", (
        _MIXTURE,
        Param("capacity", _number, "--capacity"),
        _RATIO,
        Param("bits_per_param", _number, "--bits-per-param", default=2.0),
        Param("units", _string, "--units", default="bits", choices=("bits", "params")),
    )),
    "sweep": Command(cmd_sweep, "accuracy/loss sweep along one axis", (
        _MIXTURE,
        Param("axis", _string, "--axis", required=True, choices=("model_size", "mixing_ratio")),
        Param("grid", _numbers, required=True),
        Param("capacity", _capacity, "--capacity", help="fixed capacity for mixing_ratio sweeps"),
        _RATIO,
    )),
    # Config only; an absent key keeps the SubsetExperiment default.
    "subsets": Command(cmd_subsets, "power-law subset experiment", (
        Param("group_count", _integer),
        Param("group_size", _integer),
        Param("powerlaw_exponent", _number),
        Param("mixing_ratio", _number),
        Param("capacity_grid", _numbers),
        Param("accuracy_target", _number),
        Param("entropy_per_fact", _number),
        Param("web", _web),
    )),
    "synbio": Command(cmd_synbio, "generate synthetic biographies", (
        Param("count", _integer, "--count", required=True),
        _SEED,
        Param("format", _string, "--format", default="jsonl", choices=("jsonl", "json"),
              flag_only=True),
        Param("render_out", _string, "--render-out", help="also write rendered exposures",
              flag_only=True),
    )),
    "mixplan": Command(cmd_mixplan, "token accounting for a data mixture", (
        Param("total_tokens", _number, "--total-tokens", required=True),
        Param("mixing_ratio", _number, "--ratio", required=True),
        Param("knowledge_tokens", _number, "--knowledge-tokens", required=True),
        Param("web_pool_tokens", _number, "--web-pool-tokens"),
        Param("fact_count", _integer, "--fact-count", default=1),
        Param("tokens_per_fact", _number, "--tokens-per-fact"),
        _RECORDS._replace(required=False, help="JSONL corpus to measure tokens per fact from"),
        _SEED._replace(required=False),
    )),
    "subsample": Command(cmd_subsample, "random subsample of a corpus", (
        _RECORDS,
        Param("keep_ratio", _number, "--keep-ratio", required=True),
        _SEED,
    )),
    "ckm": Command(cmd_ckm, "compact knowledge mixing texts", (
        _RECORDS,
        Param("ckm_ratio", _number, "--ckm-ratio", required=True),
        _SEED,
    )),
    "estimate": Command(cmd_estimate, "threshold popularity from observations", (
        Param("observations", _string, "--observations", required=True,
              help="CSV with header popularity,correct", flag_only=True),
        Param("accuracy_target", _number, "--target"),
        Param("max_failures", _integer, "--max-failures"),
    )),
    "fit": Command(cmd_fit, "fit a scaling-law curve to points", (
        Param("points", _string, "--points", required=True, help="CSV with header x,y",
              flag_only=True),
        Param("model", _string, "--model", required=True, choices=tuple(_FITTERS)),
    )),
}


class _UsageError(Exception):
    """An argparse usage error, raised so that main can report it."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its usage errors instead of exiting."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixcap",
        description="Capacity allocation, phase-transition thresholds, and "
        "synthetic corpora for data mixing studies",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        for row in command.params:
            if row.flag:
                sub.add_argument(
                    row.flag,
                    dest=row.key,
                    type=_FLAG_TYPES.get(row.kind, str),
                    metavar="{" + ",".join(row.choices) + "}" if row.choices else None,
                    help=row.help,
                )
        sub.add_argument("--config", help="JSON config file; flags override its values")
        sub.add_argument("--out", help="output path (default: $MIXCAP_OUT_DIR or cwd)")
        sub.add_argument("--json-errors", action="store_true",
                         help="emit a machine-readable error object on stderr")
    return parser


def main(argv=None) -> int:
    if argv is not None:
        return _run(argv)
    # Run as the program: no result goes through BLAS, so the OpenBLAS
    # that numpy and scipy load starts no worker pool. It reads the
    # variable once, when it loads, and no handler has imported numpy
    # yet. A value the user set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # No cycle a command makes grows with its input (see the module
    # docstring), so the collector can stay off: it then rescans no module a
    # handler imports. Frozen on the way out, also on SystemExit, the heap
    # is skipped by the collection at interpreter shutdown.
    gc.disable()
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()
        gc.enable()


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        parser, message = exc.args
        if "--json-errors" not in argv:
            argparse.ArgumentParser.error(parser, message)  # usage on stderr, exit 2
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        return 2
    try:
        COMMANDS[args.command].handler(_params(args, _load_config(args)))
        return 0
    except (ValueError, OSError, KeyError) as exc:  # OSError: a path the user named
        code, message, text = 2, str(exc), f"error: {exc}"
    except Exception as exc:  # internal failure
        code, message, text = 1, f"internal: {exc}", f"internal error: {exc}"
    sys.stderr.write((json.dumps({"error": message}) if args.json_errors else text) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
