"""The four workloads.

Each workload builds its inputs from the seed (``build``, timed as set-up),
then runs whole rounds of the same operations (``round``) and returns
samples of the wall time of its unit of work, scaled to the reference
machine speed (``harness.Speed``):

- cli_cold: one cold CLI invocation, eleven per closed-loop pass;
- sweep_hetero: one grid point solved and scored, over both sweep axes;
- paper_scale: one completed capacity point, optimal_allocation + accuracy;
- corpus: one record taken through generate, render and serialise.

Only calls into mixcap are timed; the checks run outside the spans of the
layers they check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import digests
import inputs
import reference as ref
from harness import Recorder, Speed, Tally, deadline


@dataclass
class Context:
    root: Path  # the checkout: src/mixcap lives under it
    work: Path  # scratch directory of this run, inside the checkout
    mc: object  # the imported mixcap package
    env: dict  # environment for child interpreters
    speed: Speed  # scales wall times to the reference machine speed

    def data(self):
        return inputs.load_domains(self.root / "src" / "mixcap" / "data")


class Workload:
    name = ""
    runs_children = False  # peak memory is that of the largest child process

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.mc = ctx.mc
        self.speed = ctx.speed

    def prepare(self, seed: int, tally: Tally) -> None:
        """Once per run, before set-up; not timed."""

    def build(self, seed: int, rec: Recorder) -> None:
        raise NotImplementedError

    def round(self, rec: Recorder, tally: Tally) -> list[float]:
        raise NotImplementedError

    def layers(self, rec: Recorder) -> dict[str, float]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# cli_cold
# --------------------------------------------------------------------------

CLI_TIMEOUT_S = 60.0
CORPUS_RECORDS = 2000
SYNBIO_COUNT = 300
SWEEP_HEADER = ["axis", "accuracy", "accuracy_count", "knowledge_loss", "web_loss", "mixture_loss"]


class CliCold(Workload):
    """Each subcommand in a fresh interpreter, one at a time (closed loop)."""

    name = "cli_cold"
    runs_children = True

    def build(self, seed, rec):
        rng = np.random.default_rng(seed)
        domains, names = self.ctx.data()
        self.domains = {k: frozenset(v) for k, v in domains.items()}
        src, out = self.ctx.work / "in", self.ctx.work / "out"
        src.mkdir(parents=True, exist_ok=True)
        out.mkdir(parents=True, exist_ok=True)
        self.out = out

        single = inputs.single_fact(rng)
        self.single = single
        mix = single["mixture"]
        fact = mix["knowledge"]["facts"][0]
        h, m0 = fact["h"], single["m0"]
        self.sweep_grid = np.geomspace(0.5 * m0, 2.0 * (m0 + h), 20).tolist()
        self.docs = inputs.corpus_docs(rng, CORPUS_RECORDS, domains, names)
        obs_text, self.popularities = inputs.observations_csv(rng)
        pts_text, self.true_slope, xs, ys = inputs.loglog_points_csv(rng)
        self.ols_slope = ref.loglog_slope(xs, ys)
        self.keep = float(rng.uniform(0.2, 0.8))
        self.ckm_ratio = float(rng.uniform(0.1, 0.5))
        self.plan = (float(10 ** rng.uniform(8, 10)), float(rng.uniform(0.01, 0.3)), float(rng.uniform(1e5, 1e6)))
        cli_seed = str(int(rng.integers(2**32)))

        files = {
            "config.json": json.dumps({"mixture": mix, "capacity": single["capacity"]}),
            "sweep.json": json.dumps({"mixture": mix, "axis": "model_size", "grid": self.sweep_grid}),
            "subsets.json": json.dumps(inputs.SUBSETS_CONFIG),
            "nan.json": json.dumps(inputs.NAN_CONFIG),
            "corpus.jsonl": inputs.jsonl(self.docs),
            "obs.csv": obs_text,
            "points.csv": pts_text,
        }
        for name, text in files.items():
            (src / name).write_text(text)

        def i(name):
            return str(src / name)

        def o(name):
            return str(out / name)

        total, ratio, ktok = self.plan
        self.invocations = (
            ("allocate", ["allocate", "--config", i("config.json"), "--out", o("allocation.json")], self._allocate),
            ("thresholds", ["thresholds", "--config", i("config.json"), "--out", o("thresholds.json")], self._thresholds),
            ("sweep", ["sweep", "--config", i("sweep.json"), "--out", o("sweep.csv")], self._sweep),
            ("subsets", ["subsets", "--config", i("subsets.json"), "--out", o("subsets.csv")], self._subsets),
            ("synbio", ["synbio", "--count", str(SYNBIO_COUNT), "--seed", cli_seed, "--out", o("synbio.jsonl"),
                        "--render-out", o("synbio.txt")], self._synbio),
            ("mixplan", ["mixplan", "--total-tokens", repr(total), "--ratio", repr(ratio), "--knowledge-tokens", repr(ktok),
                         "--fact-count", str(CORPUS_RECORDS), "--records", i("corpus.jsonl"), "--seed", cli_seed,
                         "--out", o("mixplan.json")], self._mixplan),
            ("subsample", ["subsample", "--records", i("corpus.jsonl"), "--keep-ratio", repr(self.keep), "--seed", cli_seed,
                           "--out", o("subsample.jsonl")], self._subsample),
            ("ckm", ["ckm", "--records", i("corpus.jsonl"), "--ckm-ratio", repr(self.ckm_ratio), "--seed", cli_seed,
                     "--out", o("ckm.txt")], self._ckm),
            ("estimate", ["estimate", "--observations", i("obs.csv"), "--out", o("threshold.json")], self._estimate),
            ("fit", ["fit", "--points", i("points.csv"), "--model", "loglog", "--out", o("fit.json")], self._fit),
            ("invalid_input", ["allocate", "--config", i("nan.json"), "--capacity", "nan", "--out", o("nan.json")],
             self._invalid),
        )

    # One pass ---------------------------------------------------------------

    def round(self, rec, tally):
        self._stdout_bytes = 0
        scaled, pass_s = [], 0.0
        before = self.speed.child()
        for name, argv, check in self.invocations:
            seconds = tally.op(f"cli {name}", self._cold, rec, name, argv, check)
            after = self.speed.child()
            if seconds is not None:
                pass_s += seconds
                scaled.append(self.speed.scale_child(seconds, before, after))
            before = after
        rec.samples["cli.pass"].append(pass_s)
        rec.samples["cli.bytes_written"].append(self._bytes_written())
        if rec.tracing:
            self._inprocess_pass(rec, tally)
        return scaled

    def _cold(self, rec, name, argv, check):
        cmd = [sys.executable, "-m", "mixcap.cli", *argv]
        with rec.span(f"cli.{name}"):
            proc = subprocess.run(
                cmd, cwd=self.ctx.work, env=self.ctx.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
        self._stdout_bytes += len(proc.stdout)
        check(proc.returncode, proc.stdout, proc.stderr)
        return rec.samples[f"cli.{name}"][-1]

    def _inprocess_pass(self, rec, tally):
        """The same pass through cli.main, without interpreter start or import."""
        total = 0.0
        for name, argv, check in self.invocations:
            total += tally.op(f"cli.main {name}", self._inprocess, rec, name, argv, check) or 0.0
        rec.samples["cli.inprocess_pass"].append(total)

    def _inprocess(self, rec, name, argv, check):
        from mixcap import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code, seconds = rec.call(f"cli.main.{name}", cli.main, argv)
        check(code, stdout.getvalue(), stderr.getvalue())
        if name == "estimate":
            self._analysis_estimate(rec)
        elif name == "fit":
            self._analysis_fit(rec)
        return seconds

    def _analysis_estimate(self, rec):
        analysis = self.mc.analysis
        obs = analysis.read_observations_csv(self.ctx.work / "in" / "obs.csv")
        value, _ = rec.call("analysis.estimate_threshold_popularity", analysis.estimate_threshold_popularity, obs)
        checks.member(value, self.popularities)

    def _analysis_fit(self, rec):
        points = list(zip(*np.loadtxt(self.ctx.work / "in" / "points.csv", delimiter=",", skiprows=1).T))
        fit, _ = rec.call("analysis.fit_loglog", self.mc.analysis.fit_loglog, points)
        checks.fit_covers(fit.to_dict(), self.true_slope, self.ols_slope)

    def _bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir()) + self._stdout_bytes

    def layers(self, rec):
        metrics = {f"cli.{name}_s": rec.median(f"cli.{name}") for name, _, _ in self.invocations}
        metrics["cli.pass_s"] = rec.median("cli.pass")
        metrics["cli.inprocess_pass_s"] = rec.median("cli.inprocess_pass")
        metrics["cli.bytes_written"] = rec.median("cli.bytes_written")
        metrics["analysis.estimate_threshold_popularity_s"] = rec.median("analysis.estimate_threshold_popularity")
        metrics["analysis.fit_loglog_s"] = rec.median("analysis.fit_loglog")
        return metrics

    # Checks -----------------------------------------------------------------

    def _read_json(self, name):
        return checks.strict_json((self.out / name).read_text())

    @staticmethod
    def _ok(code, stderr):
        checks.require(code == 0, f"exit {code}: {stderr.strip()[-300:]}")

    def _closed_form(self, capacity):
        mix = self.single["mixture"]
        fact = mix["knowledge"]["facts"][0]
        web = ref.web_from_doc(mix["web"])
        return ref.single_fact_closed_form(fact["p"], fact["h"], mix["knowledge"]["c1"], web, mix["r"], capacity)

    def _allocate(self, code, stdout, stderr):
        self._ok(code, stderr)
        doc = self._read_json("allocation.json")
        capacity = self.single["capacity"]
        checks.split_sums(doc["m1"], doc["m2"], capacity)
        checks.matches("allocate loss", doc["loss"], self._closed_form(capacity)[2])

    def _thresholds(self, code, stdout, stderr):
        self._ok(code, stderr)
        doc = self._read_json("thresholds.json")
        m0, h = self.single["m0"], self.single["mixture"]["knowledge"]["facts"][0]["h"]
        checks.matches("m_lower", doc["m_lower"], m0)
        checks.matches("m_upper", doc["m_upper"], m0 + h)

    def _sweep(self, code, stdout, stderr):
        self._ok(code, stderr)
        rows = checks.csv_rows((self.out / "sweep.csv").read_text(), SWEEP_HEADER)
        checks.require(len(rows) == len(self.sweep_grid), f"{len(rows)} sweep rows")
        h = self.single["mixture"]["knowledge"]["facts"][0]["h"]
        for row, capacity in zip(rows, self.sweep_grid):
            m1, _, loss = self._closed_form(capacity)
            checks.require(float(row[0]) == capacity, f"axis {row[0]} != {capacity!r}")
            checks.require(abs(float(row[1]) - m1 / h) <= 1e-12, f"accuracy {row[1]} != {m1 / h!r}")
            checks.matches("sweep loss", float(row[5]), loss)
        checks.accuracy_curve(float(row[1]) for row in rows)
        self._read_json("sweep_thresholds.json")

    def _subsets(self, code, stdout, stderr):
        self._ok(code, stderr)
        config = inputs.SUBSETS_CONFIG
        rows = checks.csv_rows((self.out / "subsets.csv").read_text(), ["capacity", "group", "weight", "accuracy"])
        checks.require(len(rows) == len(config["capacity_grid"]) * config["group_count"], f"{len(rows)} subset rows")
        thresholds = checks.csv_rows((self.out / "subsets_thresholds.csv").read_text(), ["capacity", "f_thres"])
        points = [(float(c), float(f)) for c, f in thresholds if f != "NA"]
        checks.require(len(points) >= 3, f"{len(points)} thresholds")
        slope = ref.loglog_slope(*zip(*points))
        checks.loglog_slope_near(slope, -(config["web"]["power_law"]["alpha"] + 1.0))

    def _synbio(self, code, stdout, stderr):
        self._ok(code, stderr)
        docs = [checks.strict_json(line) for line in (self.out / "synbio.jsonl").read_text().splitlines()]
        checks.require(len(docs) == SYNBIO_COUNT, f"{len(docs)} records")
        checks.records_valid(docs, self.domains, inputs.PRONOUNS)
        texts = (self.out / "synbio.txt").read_text().splitlines()
        checks.require(len(texts) == SYNBIO_COUNT, f"{len(texts)} renderings")
        for text, doc in zip(texts, docs):
            checks.rendering_verbatim(text, doc)

    def _mixplan(self, code, stdout, stderr):
        self._ok(code, stderr)
        total, ratio, ktok = self.plan
        checks.mix_plan(self._read_json("mixplan.json"), total, ratio, ktok)

    def _subsample(self, code, stdout, stderr):
        self._ok(code, stderr)
        position = {d["name"]: i for i, d in enumerate(self.docs)}
        kept = [checks.strict_json(line) for line in (self.out / "subsample.jsonl").read_text().splitlines()]
        for doc in kept:
            checks.require(doc["name"] in position and self.docs[position[doc["name"]]] == doc, "kept record not in input")
        checks.subsample_kept([position[d["name"]] for d in kept], len(self.docs), self.keep)

    def _ckm(self, code, stdout, stderr):
        self._ok(code, stderr)
        summary = checks.strict_json(stdout)
        texts = (self.out / "ckm.txt").read_text().splitlines()
        checks.require(summary["emissions"] == len(texts), "emission count")
        checks.ckm_budget(texts, summary["original_tokens"], summary["compact_tokens"], self.ckm_ratio)

    def _estimate(self, code, stdout, stderr):
        self._ok(code, stderr)
        checks.member(self._read_json("threshold.json")["threshold_popularity"], self.popularities)

    def _fit(self, code, stdout, stderr):
        self._ok(code, stderr)
        checks.fit_covers(self._read_json("fit.json"), self.true_slope, self.ols_slope)

    def _invalid(self, code, stdout, stderr):
        checks.rejected(code, stderr, "capacity")


# --------------------------------------------------------------------------
# sweep_hetero
# --------------------------------------------------------------------------

HETERO_FACTS = 20_000
MODEL_POINTS = 200
RATIO_GRID = tuple(np.geomspace(1e-3, 0.9, 50).tolist())
DIRECT_EVERY = 10  # direct optimal_allocation calls at every 10th model size


class SweepHetero(Workload):
    """Many solves on one heterogeneous universe, along both sweep axes."""

    name = "sweep_hetero"

    def build(self, seed, rec):
        mc = self.mc
        doc, self.p, self.h = inputs.pareto_universe(np.random.default_rng(seed), HETERO_FACTS)
        self.mixture, _ = rec.call("universe.from_dict", mc.mixture_from_dict, doc)
        self.ties = [mc.mixture_from_dict(inputs.tie_doc(case)) for case in inputs.TIE_CASES]
        self.r, self.c1 = doc["r"], doc["knowledge"]["c1"]
        self.web = ref.web_from_doc(doc["web"])
        t = self.r * self.p / (1.0 - self.r)
        low = 0.5 * float(self.web.m0(t.max()))
        high = 2.0 * (float(self.web.m0(t.min())) + math.fsum(self.h.tolist()))
        self.grid = tuple(np.geomspace(low, high, MODEL_POINTS).tolist())
        self.fixed_capacity = math.sqrt(low * high)
        self.slack = checks.summation_slack(self.p, self.h)
        self._solutions = {}

    def _reference(self, r, capacity):
        key = (r, capacity)
        if key not in self._solutions:
            self._solutions[key] = ref.solve(self.p, self.h, r, self.web, capacity, self.c1)
        return self._solutions[key]

    def round(self, rec, tally):
        rows, model_s = tally.op("sweep model_size", self._model_sweep, rec) or (None, None)
        ratio_s = tally.op("sweep mixing_ratio", self._ratio_sweep, rec)
        tally.op("sweep_csv", self._csv, rec, rows)
        for capacity in self.grid[::DIRECT_EVERY]:
            tally.op("optimal_allocation", self._direct, rec, capacity)
        tally.op("knowledge_frontier", self._frontier, rec)
        for index, case in enumerate(inputs.TIE_CASES):
            tally.op(f"tie case {index}", self._tie, rec, index, case)
        if model_s is None or ratio_s is None:
            return []
        return [(model_s + ratio_s) / (len(self.grid) + len(RATIO_GRID))]

    def _model_sweep(self, rec):
        mc = self.mc
        config = mc.SweepConfig(mixture=self.mixture, sweep_axis="model_size", grid=self.grid)
        before = self.speed.loop()
        rows, seconds = rec.call("simulator.sweep_model_size", mc.sweep, config)
        seconds = self.speed.scale(seconds, before)
        checks.require([row.axis_value for row in rows] == list(self.grid), "model-size rows")
        for row, capacity in zip(rows, self.grid):
            checks.matches("sweep loss", row.mixture_loss, self._reference(self.r, capacity).mixture_loss, self.slack)
        checks.accuracy_curve(row.accuracy for row in rows)
        return rows, seconds

    def _ratio_sweep(self, rec):
        mc = self.mc
        config = mc.SweepConfig(
            mixture=self.mixture, sweep_axis="mixing_ratio", grid=RATIO_GRID, total_capacity=self.fixed_capacity
        )
        before = self.speed.loop()
        rows, seconds = rec.call("simulator.sweep_mixing_ratio", mc.sweep, config)
        seconds = self.speed.scale(seconds, before)
        checks.require([row.axis_value for row in rows] == list(RATIO_GRID), "mixing-ratio rows")
        for row, r in zip(rows, RATIO_GRID):
            checks.matches("sweep loss", row.mixture_loss, self._reference(r, self.fixed_capacity).mixture_loss, self.slack)
        checks.accuracy_curve(row.accuracy for row in rows)
        return seconds

    def _csv(self, rec, rows):
        text, _ = rec.call("simulator.sweep_csv", self.mc.simulator.sweep_csv, rows)
        parsed = checks.csv_rows(text, SWEEP_HEADER)
        checks.require(len(parsed) == len(rows), f"{len(parsed)} CSV rows for {len(rows)}")
        for line, row in zip(parsed, rows):
            fields = (row.axis_value, row.accuracy, row.accuracy_count, row.knowledge_loss, row.web_loss, row.mixture_loss)
            checks.require([float(v) for v in line] == list(fields), "CSV values differ from the rows")

    def _direct(self, rec, capacity):
        mc = self.mc
        alloc, _ = rec.call("allocator.optimal_allocation", mc.optimal_allocation, self.mixture, capacity)
        acc, _ = rec.call("simulator.accuracy", mc.accuracy, alloc, self.mixture.knowledge)
        check_allocation(alloc, acc, self.p, self.h, self.r, self.web, capacity, self._reference(self.r, capacity))

    def _frontier(self, rec):
        capacity = 0.5 * math.fsum(self.h.tolist())
        (loss, learned), _ = rec.call("universe.frontier", self.mc.knowledge_frontier, self.mixture.knowledge, capacity)
        check_frontier(loss, learned, self.p, self.h, capacity, self.c1)

    def _tie(self, rec, index, case):
        points, facts, capacity = case
        p, h = np.array([f[0] for f in facts]), np.array([f[1] for f in facts])
        web = ref.Tabulated(points=tuple((float(m), float(f)) for m, f in points))
        alloc, _ = rec.call("allocator.tie_case", self.mc.optimal_allocation, self.ties[index], capacity)
        expected = ref.solve(p, h, 0.5, web, capacity)
        learned = np.asarray(alloc.learned)
        checks.matches("tie loss", alloc.mixture_loss, expected.mixture_loss)
        checks.at_most_one_fractional(learned)
        checks.certificate(p, h, learned, 0.5, web, alloc.web_capacity, alloc.mixture_loss)
        checks.largest_optimum(alloc.knowledge_capacity, expected.m1)

    def layers(self, rec):
        return {
            "universe.from_dict_s": rec.median("universe.from_dict"),
            "universe.facts": float(HETERO_FACTS),
            "universe.frontier_s": rec.median("universe.frontier"),
            "allocator.optimal_allocation_s": rec.median("allocator.optimal_allocation"),
            "allocator.calls": float(len(self.grid[::DIRECT_EVERY])),
            "simulator.sweep_model_size_s": rec.median("simulator.sweep_model_size"),
            "simulator.sweep_mixing_ratio_s": rec.median("simulator.sweep_mixing_ratio"),
            "simulator.sweep_csv_s": rec.median("simulator.sweep_csv"),
            "simulator.accuracy_s": rec.median("simulator.accuracy"),
        }


def check_allocation(alloc, acc, p, h, r, web, capacity, expected) -> None:
    learned = np.asarray(alloc.learned, dtype=float)
    checks.split_sums(alloc.knowledge_capacity, alloc.web_capacity, capacity)
    checks.matches("mixture loss", alloc.mixture_loss, expected.mixture_loss, checks.summation_slack(p, h, r))
    checks.at_most_one_fractional(learned)
    checks.certificate(p, h, learned, r, web, alloc.web_capacity, alloc.mixture_loss)
    checks.accuracy_value(acc, h, learned)


def check_frontier(loss, learned, p, h, capacity, c1) -> None:
    expected, _ = ref.frontier(p, h, capacity, c1)
    checks.matches("frontier loss", loss, expected, checks.summation_slack(p, h))
    checks.at_most_one_fractional(np.asarray(learned, dtype=float))


# --------------------------------------------------------------------------
# paper_scale
# --------------------------------------------------------------------------

PAPER_DEADLINE_S = 1.0


class PaperScale(Workload):
    """Few solves on the SynBio-320k universe, each under a deadline."""

    name = "paper_scale"

    def build(self, seed, rec):
        domains, _ = self.ctx.data()
        doc, self.p, self.h = inputs.synbio_320k(np.random.default_rng(seed), inputs.record_entropy_bits(domains))
        self.mixture, _ = rec.call("universe.from_dict", self.mc.mixture_from_dict, doc)
        self.web, self.r = ref.web_from_doc(doc["web"]), doc["r"]
        self._solutions = {}

    def round(self, rec, tally):
        self._last_accuracy = 0.0
        units = []
        for capacity in inputs.PAPER_CAPACITIES:
            seconds = tally.op(f"capacity {capacity:.4g}", self._point, rec, capacity)
            if seconds is not None:
                units.append(seconds)
        tally.op("knowledge_frontier", self._frontier, rec)
        return units

    def _point(self, rec, capacity):
        mc = self.mc
        before = self.speed.loop()
        with deadline(PAPER_DEADLINE_S):
            alloc, alloc_s = rec.call("allocator.optimal_allocation", mc.optimal_allocation, self.mixture, capacity)
        with deadline(PAPER_DEADLINE_S):
            acc, acc_s = rec.call("simulator.accuracy", mc.accuracy, alloc, self.mixture.knowledge)
        seconds = self.speed.scale(alloc_s + acc_s, before)
        if capacity not in self._solutions:
            self._solutions[capacity] = ref.solve(self.p, self.h, self.r, self.web, capacity)
        check_allocation(alloc, acc, self.p, self.h, self.r, self.web, capacity, self._solutions[capacity])
        checks.accuracy_curve([self._last_accuracy, acc])
        self._last_accuracy = acc
        return seconds

    def _frontier(self, rec):
        capacity = 0.5 * math.fsum(self.h.tolist())
        (loss, learned), _ = rec.call("universe.frontier", self.mc.knowledge_frontier, self.mixture.knowledge, capacity)
        check_frontier(loss, learned, self.p, self.h, capacity, 0.0)

    def layers(self, rec):
        return {
            "universe.from_dict_s": rec.median("universe.from_dict"),
            "universe.facts": float(inputs.PAPER_GROUPS * inputs.PAPER_GROUP_SIZE),
            "universe.frontier_s": rec.median("universe.frontier"),
            "allocator.optimal_allocation_s": rec.median("allocator.optimal_allocation"),
            "allocator.calls": float(len(inputs.PAPER_CAPACITIES)),
            "simulator.accuracy_s": rec.median("simulator.accuracy"),
        }


# --------------------------------------------------------------------------
# corpus
# --------------------------------------------------------------------------

CORPUS_BATCH = 5_000
RERUN_PREFIX = 500


class Corpus(Workload):
    """Generate, render and serialise a fresh batch of records per round."""

    name = "corpus"

    def prepare(self, seed, tally):
        try:
            digests.verify(self.mc)
        except checks.CheckFailed as exc:
            tally.reject("stored digests", exc)

    def build(self, seed, rec):
        rng = np.random.default_rng(seed)
        domains, _ = self.ctx.data()
        self.domains = {k: frozenset(v) for k, v in domains.items()}
        self.keep = float(rng.uniform(0.2, 0.8))
        self.ckm_ratio = float(rng.uniform(0.1, 0.5))
        self.plan = (float(10 ** rng.uniform(8, 10)), float(rng.uniform(0.01, 0.3)))
        self.seeds = np.random.SeedSequence(seed)

    def round(self, rec, tally):
        corpus = self.mc.corpus
        state = self.seeds.spawn(1)[0].generate_state(1 + CORPUS_BATCH, dtype=np.uint64).tolist()
        batch_seed, render_seeds = state[0], state[1:]
        made = tally.op("generate_synbio", self._generate, rec, corpus, batch_seed)
        render_s = tally.op("render_exposure", self._render, rec, corpus, made, render_seeds)
        tally.op("rerun", self._rerun, rec, corpus, made, batch_seed)
        tally.op("subsample_corpus", self._subsample, rec, corpus, made, batch_seed)
        original = tally.op("ckm_augment", self._ckm, rec, corpus, made, batch_seed)
        tally.op("plan_mixture", self._plan, rec, corpus, original)
        if made is None or render_s is None:
            return []
        return [(made[2] + render_s) / CORPUS_BATCH]

    def _generate(self, rec, corpus, batch_seed):
        before = self.speed.loop()
        records, gen_s = rec.call("corpus.generate_synbio", corpus.generate_synbio, CORPUS_BATCH, batch_seed)
        data, ser_s = rec.call("corpus.record_to_dict", digests.serialise, corpus, records)
        seconds = self.speed.scale(gen_s + ser_s, before)
        rec.samples["corpus.jsonl_bytes"].append(len(data))
        docs = [json.loads(line) for line in data.splitlines()]
        checks.require(len(docs) == CORPUS_BATCH, f"{len(docs)} records")
        checks.records_valid(docs, self.domains, inputs.PRONOUNS)
        return records, data, seconds, docs

    def _render(self, rec, corpus, made, render_seeds):
        records, _, _, docs = made
        before = self.speed.loop()
        texts, seconds = rec.call("corpus.render_exposure", digests.render_all, corpus, records, render_seeds)
        seconds = self.speed.scale(seconds, before)
        for text, doc in zip(texts, docs):
            checks.rendering_verbatim(text, doc)
        return seconds

    def _rerun(self, rec, corpus, made, batch_seed):
        again = digests.serialise(corpus, corpus.generate_synbio(RERUN_PREFIX, batch_seed))
        prefix = b"".join(made[1].splitlines(keepends=True)[:RERUN_PREFIX])
        checks.identical(again, prefix, "generate_synbio output")

    def _subsample(self, rec, corpus, made, batch_seed):
        records = made[0]
        kept, _ = rec.call("corpus.subsample_corpus", corpus.subsample_corpus, records, self.keep, batch_seed)
        position = {id(r): i for i, r in enumerate(records)}
        checks.require(all(id(r) in position for r in kept), "kept record not in input")
        checks.subsample_kept([position[id(r)] for r in kept], len(records), self.keep)

    def _ckm(self, rec, corpus, made, batch_seed):
        (texts, original, compact, _), _ = rec.call(
            "corpus.ckm_augment", corpus.ckm_augment, made[0], self.ckm_ratio, batch_seed
        )
        checks.ckm_budget(texts, original, compact, self.ckm_ratio)
        return original

    def _plan(self, rec, corpus, original):
        total, ratio = self.plan
        knowledge_tokens = float(original)
        plan, _ = rec.call(
            "corpus.plan_mixture", corpus.plan_mixture, total, ratio, knowledge_tokens, None, CORPUS_BATCH,
            original / CORPUS_BATCH,
        )
        checks.mix_plan(plan.to_dict(), total, ratio, knowledge_tokens)

    def layers(self, rec):
        names = (
            "generate_synbio", "render_exposure", "record_to_dict", "subsample_corpus", "ckm_augment", "plan_mixture",
        )
        metrics = {f"corpus.{n}_s": rec.median(f"corpus.{n}") for n in names}
        metrics["corpus.jsonl_bytes"] = rec.median("corpus.jsonl_bytes")
        return metrics


WORKLOADS = {w.name: w for w in (CliCold, SweepHetero, PaperScale, Corpus)}
