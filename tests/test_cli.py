"""End-to-end CLI behavior: determinism, validation exits, overrides."""

import errno
import gc
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mixcap.allocator import full_threshold_report, optimal_allocation
from mixcap.analysis import (
    AccuracyObservation,
    estimate_threshold_popularity,
    fit_loglog,
    invert_size,
    loglog_predict,
    read_points_csv,
)
from mixcap.cli import COMMANDS, _integer, _json_text, _read_records, _seed, main
from mixcap.corpus import RECORD_ENTROPY_BITS, ckm_augment
from mixcap.simulator import SubsetExperiment, build_subset_universe
from mixcap.universe import MixtureUniverse


MIX_DOC = {
    "mixture": {
        "knowledge": {"facts": [{"p": 0.001, "h": 5.0} for _ in range(100)], "c1": 1.0},
        "web": {"power_law": {"c": 1.0, "a": 100.0, "alpha": 0.5}},
        "r": 0.25,
    },
    "capacity": 4000.0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MIX_DOC))
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestAllocate:
    def test_happy_path_and_rerun_identical(self, tmp_path, config_path):
        out1 = tmp_path / "a1.json"
        out2 = tmp_path / "a2.json"
        assert run(["allocate", "--config", config_path, "--out", out1]) == 0
        assert run(["allocate", "--config", config_path, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert set(doc) == {"m1", "m2", "loss1", "loss2", "loss", "learned"}

    def test_capacity_flag_overrides_config(self, tmp_path, config_path):
        out_default = tmp_path / "d.json"
        out_flag = tmp_path / "f.json"
        run(["allocate", "--config", config_path, "--out", out_default])
        run(["allocate", "--config", config_path, "--capacity", 100, "--out", out_flag])
        m2_default = json.loads(out_default.read_text())["m2"]
        m2_flag = json.loads(out_flag.read_text())["m2"]
        assert m2_default != m2_flag
        assert m2_flag <= 100.0

    def test_invalid_ratio_exits_2_naming_parameter(self, tmp_path, config_path, capsys):
        code = run(
            ["allocate", "--config", config_path, "--ratio", 1.5, "--out", tmp_path / "x.json"]
        )
        assert code == 2
        assert "mixing_ratio" in capsys.readouterr().err

    def test_non_finite_capacity_exits_2_naming_parameter(
        self, tmp_path, config_path, capsys
    ):
        for value in ("nan", "inf", "-5"):
            out = tmp_path / f"{value}.json"
            code = run(["allocate", "--config", config_path, "--capacity", value, "--out", out])
            assert code == 2
            err = capsys.readouterr().err
            assert "capacity" in err and "total_capacity" not in err
            assert not out.exists()

    @pytest.mark.parametrize("c1", [0, 2])
    def test_integer_c1_is_written_as_a_float(self, tmp_path, c1):
        mixture = {"knowledge": {"facts": [{"p": 0.001, "h": 5.0}], "c1": c1},
                   "web": {"tabulated": [[0, 10], [100, 5], [1000, 4]]}, "r": 0.25}
        out = tmp_path / "a.json"
        config = _write_config(tmp_path, {"mixture": mixture, "capacity": 2000.0})
        assert run(["allocate", "--config", config, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["learned"] == [1.0]
        assert type(doc["loss1"]) is float and doc["loss1"] == c1

    def test_web_slope_that_overflows_exits_2(self, tmp_path, capsys):
        mixture = {"knowledge": {"facts": [{"p": 0.5, "h": 1.0}]},
                   "web": {"tabulated": [[0, 1e300], [1e-300, 0], [1, 0]]}, "r": 0.5}
        out = tmp_path / "a.json"
        config = _write_config(tmp_path, {"mixture": mixture, "capacity": 0.5})
        assert run(["allocate", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "segment from (0.0, 1e+300) to (1e-300, 0.0) overflows" in err
        assert "internal" not in err
        assert not out.exists()

    def test_json_errors_flag(self, tmp_path, config_path, capsys):
        code = run(
            [
                "allocate",
                "--config",
                config_path,
                "--ratio",
                1.5,
                "--out",
                tmp_path / "x.json",
                "--json-errors",
            ]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "mixing_ratio" in err["error"]


class TestThresholds:
    def test_bits_to_params_conversion(self, tmp_path, config_path):
        bits_out = tmp_path / "bits.json"
        params_out = tmp_path / "params.json"
        assert run(["thresholds", "--config", config_path, "--out", bits_out]) == 0
        assert (
            run(
                [
                    "thresholds",
                    "--config",
                    config_path,
                    "--units",
                    "params",
                    "--bits-per-param",
                    2,
                    "--capacity",
                    2000,
                    "--out",
                    params_out,
                ]
            )
            == 0
        )
        bits = json.loads(bits_out.read_text())
        params = json.loads(params_out.read_text())
        assert params["units"] == "parameters"
        assert params["m_lower"] == pytest.approx(bits["m_lower"] / 2.0)
        assert params["m_upper"] == pytest.approx(bits["m_upper"] / 2.0)
        assert bits["exponent"] == pytest.approx(1.5)

    def test_heterogeneous_universe_reports(self, tmp_path):
        doc = json.loads(json.dumps(MIX_DOC))
        doc["mixture"]["knowledge"]["facts"] = [
            {"p": 0.5, "h": 1.0},
            {"p": 0.1, "h": 1.0},
        ]
        path = tmp_path / "hetero.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "t.json"
        assert run(["thresholds", "--config", path, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["m_lower"] < report["m_upper"]
        doc["grid"] = [1.0, 10.0]
        path.write_text(json.dumps(doc))
        assert run(["sweep", "--config", path, "--axis", "model_size", "--out", tmp_path / "s.csv"]) == 0
        sidecar = json.loads((tmp_path / "s_thresholds.json").read_text())
        assert "error" not in sidecar
        assert sidecar["m_upper"] == report["m_upper"]

    def test_synbio_320k_partition_reports(self):
        # The subset experiment's power-law partition at SynBio-320k scale.
        exp = SubsetExperiment(group_size=3200)
        mixture = MixtureUniverse(build_subset_universe(exp), exp.web_curve, exp.mixing_ratio)
        assert mixture.knowledge.fact_count == 320_000
        report = full_threshold_report(mixture, exp.capacity_grid[0])
        assert report.model_size_lower < exp.capacity_grid[0] < report.model_size_upper
        upper = optimal_allocation(mixture, report.model_size_upper)
        assert upper.knowledge_capacity == mixture.knowledge.h_tot

    def test_empty_domain_exits_2_naming_it(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MIX_DOC))
        doc["mixture"]["knowledge"]["facts"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "t.json"
        assert run(["thresholds", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "the knowledge domain has no facts" in err
        assert "heterogeneous" not in err
        assert not out.exists()
        doc["grid"] = [100.0, 200.0]
        path.write_text(json.dumps(doc))
        sweep_out = tmp_path / "s.csv"
        assert run(["sweep", "--config", path, "--axis", "model_size", "--out", sweep_out]) == 0
        sidecar = json.loads((tmp_path / "s_thresholds.json").read_text())
        assert "the knowledge domain has no facts" in sidecar["error"]

    def test_non_finite_capacity_exits_2_naming_parameter(
        self, tmp_path, config_path, capsys
    ):
        for value in ("nan", "inf", "-5", "0"):
            out = tmp_path / f"{value}.json"
            code = run(["thresholds", "--config", config_path, "--capacity", value, "--out", out])
            assert code == 2
            err = capsys.readouterr().err
            assert "capacity" in err and "total_capacity" not in err
            assert not out.exists()

    def test_non_finite_bits_per_param_exits_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "t.json"
        code = run(
            ["thresholds", "--config", config_path, "--units", "params",
             "--bits-per-param", "nan", "--out", out]
        )
        assert code == 2
        assert "bits_per_param" in capsys.readouterr().err
        assert not out.exists()


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfigValidation:
    @pytest.mark.parametrize(
        "argv",
        [["allocate", "--capacity", 1], ["sweep", "--axis", "model_size"]],
        ids=lambda argv: argv[0],
    )
    def test_knowledge_loss_that_overflows_exits_2(self, tmp_path, capsys, argv):
        # c1 + p * h = 2e308: the knowledge loss with nothing learned is past the float range.
        mixture = {"knowledge": {"facts": [{"p": 1.0, "h": 1e308}], "c1": 1e308},
                   "web": {"power_law": {"c": 0, "a": 1, "alpha": 0.5}}, "r": 0.5}
        config = _write_config(tmp_path, {"mixture": mixture, "grid": [1, 2]})
        out = tmp_path / "out"
        assert run([*argv, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: irreducible_loss 1e+308 plus sum(p * h) 1e+308 overflows" in err
        assert "internal" not in err and "JSON compliant" not in err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize(
        "mixture, field",
        [
            ([], "mixture must be a JSON object"),
            ({**MIX_DOC["mixture"], "knowledge": {"facts": [{"p": "x", "h": 1.0}]}},
             "mixture.knowledge.facts[0].p"),
            ({**MIX_DOC["mixture"], "knowledge": {"facts": [{"p": 0.1, "h": "5"}]}},
             "mixture.knowledge.facts[0].h"),
            ({**MIX_DOC["mixture"], "web": {"power_law": {"c": 1.0, "a": "100", "alpha": 0.5}}},
             "mixture.web.power_law.a"),
        ],
    )
    def test_wrong_typed_values_exit_2_naming_field(self, tmp_path, capsys, mixture, field):
        path = _write_config(tmp_path, {**MIX_DOC, "mixture": mixture})
        out = tmp_path / "a.json"
        assert run(["allocate", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "internal" not in err
        assert not out.exists()

    @pytest.mark.parametrize("c1", [math.nan, math.inf, -1.0])
    def test_non_finite_c1_exits_2(self, tmp_path, capsys, c1):
        mixture = json.loads(json.dumps(MIX_DOC["mixture"]))
        mixture["knowledge"]["c1"] = c1
        path = _write_config(tmp_path, {**MIX_DOC, "mixture": mixture})
        out = tmp_path / "a.json"
        assert run(["allocate", "--config", path, "--out", out]) == 2
        assert "irreducible_loss" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_frequency_names_frequency_and_ratio(self, tmp_path, capsys):
        # r*p/(1-r) underflows to 0 for this p at r = 0.01.
        mixture = {**MIX_DOC["mixture"], "r": 0.01, "knowledge": {
            "facts": [{"p": 0.5, "h": 10.0}, {"p": 5e-324, "h": 10.0}]}}
        path = _write_config(tmp_path, {"mixture": mixture, "capacity": 1000.0})
        out = tmp_path / "a.json"
        assert run(["allocate", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "exposure_frequency 5e-324 is too small for mixing_ratio 0.01" in err
        assert not out.exists()

    def test_bad_scalar_is_named_before_a_bad_document(self, tmp_path, capsys):
        mixture = {**MIX_DOC["mixture"], "r": 2.0}
        path = _write_config(tmp_path, {"mixture": mixture})
        out = tmp_path / "a.json"
        assert run(["allocate", "--config", path, "--capacity", "nan", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: capacity must be finite, got nan" in err and "mixing_ratio" not in err
        assert not out.exists()

    def test_frequency_whose_bound_overflows_exits_2_naming_it(self, tmp_path, capsys):
        # A*alpha/t overflows, so the model size that learns the fact does too.
        mixture = {**MIX_DOC["mixture"], "knowledge": {"facts": [{"p": 1e-318, "h": 5.0}]}}
        path = _write_config(tmp_path, {"mixture": mixture})
        out = tmp_path / "t.json"
        assert run(["thresholds", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "exposure_frequency 1e-318 is too small for mixing_ratio 0.25" in err
        assert "internal" not in err
        assert not out.exists()

    def test_frequency_whose_bound_overflows_is_never_learned(self, tmp_path, capsys):
        mixture = {**MIX_DOC["mixture"], "knowledge": {"facts": [{"p": 1e-318, "h": 5.0}]}}
        path = _write_config(tmp_path, {"mixture": mixture, "grid": [100.0, 200.0]})
        out = tmp_path / "a.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["allocate", "--config", path, "--capacity", 100.0, "--out", out]) == 0
            assert run(["sweep", "--config", path, "--axis", "model_size",
                        "--out", tmp_path / "sweep.csv"]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["learned"] == [0.0]
        sidecar = json.loads((tmp_path / "sweep_thresholds.json").read_text())
        assert "exposure_frequency 1e-318 is too small" in sidecar["error"]

    @pytest.mark.parametrize("command", ["allocate", "thresholds"])
    def test_entropy_total_beyond_float_range_exits_2(self, tmp_path, capsys, command):
        mixture = {**MIX_DOC["mixture"], "knowledge": {
            "facts": [{"p": 0.1, "h": 1e308}, {"p": 0.1, "h": 1e308}]}}
        path = _write_config(tmp_path, {"mixture": mixture, "capacity": 100.0})
        out = tmp_path / "a.json"
        assert run([command, "--config", path, "--out", out, "--json-errors"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "target_entropy values must sum to a finite total"}
        assert not out.exists()

    def test_json_output_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            _json_text({"loss": math.nan})
        assert _json_text({"loss": 1.5}) == '{\n  "loss": 1.5\n}\n'


class TestSweep:
    def test_csv_and_sidecar(self, tmp_path, config_path):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep",
            "--config",
            config_path,
            "--axis",
            "model_size",
            "--out",
            out,
        ]
        # grid comes from the config file
        doc = json.loads(config_path.read_text())
        doc["grid"] = [100.0, 2000.0, 4000.0, 9000.0]
        config_path.write_text(json.dumps(doc))
        assert run(argv) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "axis,accuracy,accuracy_count,knowledge_loss,web_loss,mixture_loss"
        assert len(lines) == 5
        sidecar = json.loads((tmp_path / "sweep_thresholds.json").read_text())
        assert "m_lower" in sidecar
        # Determinism.
        out2 = tmp_path / "sweep2.csv"
        run(argv[:-1] + [out2])
        assert out.read_bytes() == out2.read_bytes()

    def test_single_point_grid(self, tmp_path, config_path):
        doc = json.loads(config_path.read_text())
        doc["grid"] = [500.0]
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "one.csv"
        assert (
            run(["sweep", "--config", config_path, "--axis", "model_size", "--out", out])
            == 0
        )
        assert len(out.read_text().strip().split("\n")) == 2

    @pytest.mark.parametrize(
        "axis, grid, capacity, message",
        [
            ("model_size", [-5, 1e3], None, "grid entries must be finite and >= 0, got -5.0"),
            ("model_size", [1e3, 1e3], None, "grid must be strictly increasing"),
            ("mixing_ratio", [0.1, 2.0], 4000.0, "grid entries must be in (0, 1), got 2.0"),
            ("mixing_ratio", [0.0, 0.5], 4000.0, "grid entries must be in (0, 1), got 0.0"),
            ("model_size", [0, 1e3], None, "grid entry 0.0 leaves the web loss infinite"),
            ("mixing_ratio", [0.1, 0.5], 0.0, "capacity 0.0 leaves the web loss infinite"),
            ("mixing_ratio", [0.1, 0.5], -5.0, "capacity must be >= 0, got -5.0"),
            ("model_size", [1e3, 2e3], -5.0, "capacity must be >= 0, got -5.0"),
        ],
    )
    def test_bad_grid_exits_2_naming_it(self, tmp_path, capsys, axis, grid, capacity, message):
        doc = {"mixture": MIX_DOC["mixture"], "axis": axis, "grid": grid, "capacity": capacity}
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", _write_config(tmp_path, doc), "--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "total_capacity" not in err and "mixing_ratio must" not in err
        assert list(tmp_path.glob("sweep*")) == []

    @pytest.mark.parametrize("axis, grid", [("model_size", [100.0, 500.0]),
                                            ("mixing_ratio", [0.1, 0.5])])
    def test_sidecar_names_capacity(self, tmp_path, axis, grid):
        mixture = {"knowledge": {"facts": [{"p": 0.001, "h": 5.0}]},
                   "web": {"tabulated": [[0, 10], [100, 5], [1000, 4]]}, "r": 0.25}
        doc = {"mixture": mixture, "axis": axis, "grid": grid, "capacity": 0}
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", _write_config(tmp_path, doc), "--out", out]) == 0
        assert len(out.read_text().strip().split("\n")) == 3
        sidecar = (tmp_path / "sweep_thresholds.json").read_text()
        assert json.loads(sidecar) == {"error": "capacity must be > 0 and finite in bits, got 0.0"}
        assert "total_capacity" not in sidecar

    def test_sweep_names_the_first_grid_entry_whose_web_loss_is_infinite(
        self, tmp_path, capsys
    ):
        config = {"mixture": _power_law_mixture(0.99), "grid": [0.0, 1e-320, 100.0]}
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "model_size", "--config", _write_config(tmp_path, config)]
        assert run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: grid entry 0.0{_DIVERGES.format('loss', 'loss')}" in err
        assert "1e-320" not in err and not out.exists()


class TestSubsets:
    def test_outputs_and_determinism(self, tmp_path):
        config = tmp_path / "subsets.json"
        config.write_text(
            json.dumps(
                {
                    "group_count": 4,
                    "group_size": 2,
                    "capacity_grid": [1e9, 5e9],
                }
            )
        )
        out = tmp_path / "subsets.csv"
        assert run(["subsets", "--config", config, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "capacity,group,weight,accuracy"
        assert len(lines) == 1 + 2 * 4
        thr = (tmp_path / "subsets_thresholds.csv").read_text().strip().split("\n")
        assert thr[0] == "capacity,f_thres"
        out2 = tmp_path / "subsets2.csv"
        run(["subsets", "--config", config, "--out", out2])
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([-5, 1e9], "capacity_grid entries must be finite and >= 0, got -5.0"),
            ([1e10, 1e9], "capacity_grid must be strictly increasing"),
            ([1e9, 1e9], "capacity_grid must be strictly increasing"),
        ],
    )
    def test_bad_capacity_grid_exits_2_naming_it(self, tmp_path, capsys, grid, message):
        config = tmp_path / "subsets.json"
        config.write_text(json.dumps({"group_count": 2, "group_size": 2, "capacity_grid": grid}))
        out = tmp_path / "subsets.csv"
        assert run(["subsets", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "total_capacity" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "exponent, reason",
        [
            (2000, "gives 100 weights that are not strictly decreasing and > 0"),
            (160, "the last group's r*p/(1-r) underflows to 0"),
        ],
    )
    def test_exponent_past_the_float_range_exits_2_naming_it(
        self, tmp_path, capsys, exponent, reason
    ):
        config = _write_config(tmp_path, {"powerlaw_exponent": exponent})
        out = tmp_path / "subsets.csv"
        assert run(["subsets", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"powerlaw_exponent {float(exponent)} is out of range" in err and reason in err
        assert "exposure_frequency" not in err
        assert not out.exists()

    def test_total_entropy_that_overflows_exits_2_naming_entropy_per_fact(
        self, tmp_path, capsys
    ):
        config = _write_config(
            tmp_path, {"entropy_per_fact": 1e308, "group_count": 2, "group_size": 2}
        )
        out = tmp_path / "subsets.csv"
        assert run(["subsets", "--config", config, "--out", out, "--json-errors"]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": (
            "entropy_per_fact 1e+308 times 4 facts overflows: "
            "the total entropy leaves the float range"
        )}
        assert not out.exists()

    def test_prefix_sum_that_overflows_exits_2_naming_entropy_per_fact(self, tmp_path, capsys):
        # 100 times the entropy is finite; the frontier's one-at-a-time sum is not.
        config = _write_config(tmp_path, {
            "entropy_per_fact": 1.7976931348623156e306, "group_count": 10, "group_size": 10,
            "capacity_grid": [1e9, 1e300],
        })
        out = tmp_path / "subsets.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["subsets", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "entropy_per_fact 1.7976931348623156e+306 times 100 facts overflows" in err
        assert list(tmp_path.glob("subsets*")) == []

    def test_more_facts_than_synbio_holds_exits_2_at_once(self, tmp_path):
        # In a child capped at 2 GiB of address space and 60 s, so that a
        # build past the check fails instead of growing without bound.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        config = _write_config(tmp_path, {"group_count": 1e12, "group_size": 1})
        result = _fresh_python(
            ["-m", "mixcap.cli", "subsets", "--config", str(config),
             "--out", str(tmp_path / "subsets.csv")],
            tmp_path, check=False, timeout=60, preexec_fn=cap,
        )
        assert result.returncode == 2, result.stderr
        assert "group_count 1000000000000 times group_size 1" in result.stderr
        assert list(tmp_path.glob("subsets*")) == []


def _power_law_mixture(alpha):
    return {**MIX_DOC["mixture"], "web": {"power_law": {"c": 1.0, "a": 100.0, "alpha": alpha}}}


_DIVERGES = " leaves the web {} infinite: a power-law web {} diverges as its capacity goes to 0"


class TestTinyCapacity:
    """Capacities so small that the power-law web loss or marginal passes the float range."""

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["allocate", "--capacity", "1e-320"], {"mixture": _power_law_mixture(0.99)},
             "capacity 1e-320" + _DIVERGES.format("loss", "loss")),
            (["sweep", "--axis", "model_size"],
             {"mixture": _power_law_mixture(0.99), "grid": [1e-320, 100.0]},
             "grid entry 1e-320" + _DIVERGES.format("loss", "loss")),
            (["thresholds", "--capacity", "1e-250"], {"mixture": _power_law_mixture(0.5)},
             "capacity 1e-250 bits" + _DIVERGES.format("marginal", "marginal")),
        ],
    )
    def test_exits_2_naming_capacity(self, tmp_path, capsys, argv, config, message):
        out = tmp_path / "out"
        code = run([*argv, "--config", _write_config(tmp_path, config), "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "internal" not in err
        assert not out.exists()

    def test_sweep_sidecar_refuses_the_report(self, tmp_path, capsys):
        config = {"mixture": _power_law_mixture(0.5), "grid": [0.1, 0.5]}
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "mixing_ratio", "--capacity", "1e-250"]
        assert run([*argv, "--config", _write_config(tmp_path, config), "--out", out]) == 0
        assert len(out.read_text().strip().split("\n")) == 3
        sidecar = json.loads((tmp_path / "sweep_thresholds.json").read_text())
        assert sidecar == {"error": "capacity 1e-250 bits" + _DIVERGES.format("marginal", "marginal")}


# SHA-256 of CLI corpus outputs that no stored benchmark digest covers.
PINNED_SHA256 = {
    "bios.txt": "e8fc5c48f07f1bae529d41a4e3b83864c8bb4df711043c48b6129ac53d8869f9",
    "mixplan.json": "c77d0caa81f67ef26bc8b1cc9f0fada1b77cd7e9a6eef4962f3688d2cdb0baa7",
    "ckm.txt": "d8e11a9d3029eec1b84a6cc2e904834eccd87b184f9fa3fa75abe1feeb21ea98",
}


def test_corpus_outputs_keep_their_bytes(tmp_path, capsys):
    bios = tmp_path / "bios.jsonl"
    assert run(["synbio", "--count", 200, "--seed", 7, "--out", bios,
                "--render-out", tmp_path / "bios.txt"]) == 0
    assert run(["mixplan", "--total-tokens", "32e9", "--ratio", 0.1, "--knowledge-tokens", "3.2e7",
                "--fact-count", 200, "--records", bios, "--seed", 7,
                "--out", tmp_path / "mixplan.json"]) == 0
    assert run(["ckm", "--records", bios, "--ckm-ratio", 0.3, "--seed", 13,
                "--out", tmp_path / "ckm.txt"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


class TestSynbio:
    def test_deterministic_jsonl(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run(["synbio", "--count", 100, "--seed", 7, "--out", a]) == 0
        assert run(["synbio", "--count", 100, "--seed", 7, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert len(lines) == 100
        doc = json.loads(lines[0])
        assert set(doc) == {"name", "attrs", "pronoun"}

    def test_seed_required(self, tmp_path, capsys):
        assert run(["synbio", "--count", 10, "--out", tmp_path / "x.jsonl"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_render_out(self, tmp_path):
        out = tmp_path / "r.jsonl"
        rendered = tmp_path / "r.txt"
        assert (
            run(
                [
                    "synbio",
                    "--count",
                    5,
                    "--seed",
                    3,
                    "--out",
                    out,
                    "--render-out",
                    rendered,
                ]
            )
            == 0
        )
        lines = rendered.read_text().strip().split("\n")
        assert len(lines) == 5
        name = json.loads(out.read_text().split("\n")[0])["name"]
        assert name in lines[0]

    def test_zero_records_give_two_empty_files(self, tmp_path):
        out, rendered = tmp_path / "r.jsonl", tmp_path / "r.txt"
        assert run(["synbio", "--count", 0, "--seed", 3, "--out", out,
                    "--render-out", rendered]) == 0
        assert out.read_bytes() == rendered.read_bytes() == b""


class TestMixplan:
    def test_epochs(self, tmp_path):
        out = tmp_path / "plan.json"
        assert (
            run(
                [
                    "mixplan",
                    "--total-tokens",
                    32e9,
                    "--ratio",
                    0.1,
                    "--knowledge-tokens",
                    3.2e7,
                    "--fact-count",
                    320000,
                    "--tokens-per-fact",
                    100,
                    "--out",
                    out,
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["knowledge_epochs"] == pytest.approx(100.0)

    def test_pool_exhaustion_names_sample(self, tmp_path, capsys):
        code = run(
            [
                "mixplan",
                "--total-tokens",
                1e9,
                "--ratio",
                0.1,
                "--knowledge-tokens",
                1e6,
                "--web-pool-tokens",
                1e8,
                "--out",
                tmp_path / "p.json",
            ]
        )
        assert code == 2
        assert "(1-r)S" in capsys.readouterr().err

    def test_records_need_seed(self, tmp_path, capsys):
        records = tmp_path / "recs.jsonl"
        assert run(["synbio", "--count", 3, "--seed", 5, "--out", records]) == 0
        out = tmp_path / "plan.json"
        argv = ["mixplan", "--total-tokens", 1e9, "--ratio", 0.1, "--knowledge-tokens", 1e6,
                "--records", records, "--out", out]
        assert run(argv) == 2
        assert "--seed is required" in capsys.readouterr().err
        assert not out.exists()
        assert run([*argv, "--seed", 5]) == 0


class TestSubsampleAndCkm:
    def test_subsample(self, tmp_path):
        records = tmp_path / "recs.jsonl"
        run(["synbio", "--count", 40, "--seed", 5, "--out", records])
        out = tmp_path / "kept.jsonl"
        assert (
            run(
                [
                    "subsample",
                    "--records",
                    records,
                    "--keep-ratio",
                    0.25,
                    "--seed",
                    9,
                    "--out",
                    out,
                ]
            )
            == 0
        )
        assert len(out.read_text().strip().split("\n")) == 10

    def test_ckm_summary(self, tmp_path, capsys):
        records = tmp_path / "recs.jsonl"
        run(["synbio", "--count", 10, "--seed", 5, "--out", records])
        capsys.readouterr()
        out = tmp_path / "ckm.txt"
        assert (
            run(["ckm", "--records", records, "--ckm-ratio", 0.3, "--seed", 2, "--out", out])
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["realized_ratio"] >= 0.3
        assert out.read_text().startswith("Bio: N ")

    @pytest.mark.parametrize("ratio, code", [
        ("just past the bound", 2), (1e9, 2), (1e300, 2), (3.0, 0)])
    def test_ckm_ratio_past_the_tuple_bound_exits_2_at_once(self, tmp_path, ratio, code):
        # In a child capped at 2 GiB of address space and 60 s, so that a
        # ratio past the check fails instead of growing without bound.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        records = tmp_path / "recs.jsonl"
        assert run(["synbio", "--count", 20, "--seed", 5, "--out", records]) == 0
        if ratio == "just past the bound":  # where 2**32 four-token tuples meet the budget
            original = ckm_augment(_read_records(str(records)), 0.0, 2)[1]
            ratio = 4 * 2**32 / original * (1 + 1e-9)
        out = tmp_path / "ckm.txt"
        result = _fresh_python(
            ["-m", "mixcap.cli", "ckm", "--records", str(records), "--ckm-ratio", repr(ratio),
             "--seed", "2", "--out", str(out)],
            tmp_path, check=False, timeout=60, preexec_fn=cap,
        )
        assert result.returncode == code, result.stderr
        if code == 2:
            assert result.stderr.startswith(f"error: ckm_ratio {ratio!r} times ")
            assert "internal" not in result.stderr and not out.exists()
        else:
            assert json.loads(result.stdout)["realized_ratio"] >= 3.0


_NOT_A_RECORD = 'a record must be a JSON object with "name", "attrs" (an object) and "pronoun", got '


class TestRecordsFile:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", _NOT_A_RECORD + "[1, 2]"),
            ('{"name": "A B", "attrs": [1], "pronoun": "her"}',
             _NOT_A_RECORD + "{'name': 'A B', 'attrs': [1], 'pronoun': 'her'}"),
            ('{"name": "A B", "attrs": {}}', _NOT_A_RECORD + "{'name': 'A B', 'attrs': {}}"),
            ('{"name": "A B", "attrs": {}, "pronoun": "her"}', "record is missing attributes"),
            ("{", "Expecting property name"),
            ('{"name": 5, "attrs": {}, "pronoun": "her"}',
             "record field name must be a string, got 5"),
            ('{"name": {"a": 1}, "attrs": {}, "pronoun": "her"}',
             "record field name must be a string, got {'a': 1}"),
            (json.dumps({"name": "A B", "pronoun": "her", "attrs": {
                "birth_date": "May 01, 1950", "birth_city": "Austin", "university": "MIT",
                "major": None, "employer": "Meta"}}),
             "record field attrs.major must be a string, got None"),
        ],
        ids=["array", "attrs-array", "no-pronoun", "no-attributes", "bad-json", "name-int",
             "name-object", "major-null"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["subsample", "--keep-ratio", 0.5, "--seed", 1],
            ["ckm", "--ckm-ratio", 0.2, "--seed", 1],
            ["mixplan", "--total-tokens", 1e9, "--ratio", 0.1, "--knowledge-tokens", 1e6,
             "--seed", 1],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_line_exits_2_naming_file_and_line(self, tmp_path, capsys, argv, line, message):
        records = tmp_path / "recs.jsonl"
        assert run(["synbio", "--count", 1, "--seed", 5, "--out", records]) == 0
        records.write_text(records.read_text() + "\n" + line + "\n")
        out = tmp_path / "out"
        assert run([*argv, "--records", records, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {records} line 3: {message}" in err
        assert not out.exists()


class TestPathErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synbio", "--count", 3, "--seed", 1, "--out", "{dir}"],
            ["subsample", "--records", "{dir}", "--keep-ratio", 0.5, "--seed", 1],
            ["allocate", "--config", "{dir}", "--capacity", 10],
        ],
        ids=["out", "records", "config"],
    )
    def test_directory_exits_2_naming_it(self, tmp_path, capsys, argv):
        target = tmp_path / "dir"
        target.mkdir()
        argv = [target if a == "{dir}" else a for a in argv]
        if "--out" not in argv:
            argv += ["--out", tmp_path / "out"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err and "internal" not in err
        # No output and no temporary file beside it or inside the directory.
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    def test_directory_as_out_names_no_temporary_file(self, tmp_path, capsys):
        target = tmp_path / "outdir"
        target.mkdir()
        assert run(["synbio", "--count", 3, "--seed", 1, "--out", target]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
        assert ".tmp" not in err

    def test_out_under_a_file_exits_2_naming_it(self, tmp_path, capsys):
        parent = tmp_path / "file"
        parent.write_text("")
        assert run(["synbio", "--count", 3, "--seed", 1, "--out", parent / "bios.jsonl"]) == 2
        err = capsys.readouterr().err
        assert str(parent) in err and "internal" not in err
        assert list(tmp_path.iterdir()) == [parent]

    @pytest.mark.parametrize("below", ["x", "a/x"])
    def test_file_in_the_way_of_out_says_not_a_directory(self, tmp_path, capsys, below):
        # mkdir of the file's own path says File exists and names the file;
        # the message names the output and says why it cannot be written.
        parent = tmp_path / "points.csv"
        parent.write_text("")
        target = parent / below
        assert run(["synbio", "--count", 3, "--seed", 1, "--out", target]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.ENOTDIR}] Not a directory: {str(target)!r}\n"
        assert list(tmp_path.iterdir()) == [parent] and parent.read_text() == ""


class TestEstimateAndFit:
    def test_estimate_defaults(self, tmp_path):
        obs_path = tmp_path / "obs.csv"
        xs = list(range(1, 21))
        ys = [0] * 10 + [1] * 10
        obs_path.write_text(
            "popularity,correct\n"
            + "".join(f"{x},{y}\n" for x, y in zip(xs, ys))
        )
        out = tmp_path / "thr.json"
        assert run(["estimate", "--observations", obs_path, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["accuracy_target"] == 0.6
        assert doc["max_failures"] == 5
        expected = estimate_threshold_popularity(
            [AccuracyObservation(float(x), bool(y)) for x, y in zip(xs, ys)]
        )
        assert doc["threshold_popularity"] == expected

    def test_fit_models(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n" + "".join(f"{x},{x*x}\n" for x in (1.0, 2.0, 3.0, 4.0)))
        out = tmp_path / "fit.json"
        assert run(["fit", "--points", pts, "--model", "loglog", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "loglog"
        assert doc["params"]["slope"] == pytest.approx(2.0)

    def test_ratio_fit_out_of_range_x_exits_2_naming_column(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n" + "".join(f"{x},{100 / x}\n" for x in (1, 2, 4, 8, 16)))
        out = tmp_path / "fit.json"
        assert run(["fit", "--points", pts, "--model", "power", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "column 'x' (the mixing ratio r) in (0, 1), got point (1.0, 100.0)" in err
        assert not out.exists()

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n1,1\n2,4\n3,9\n")
        assert (
            run(["fit", "--points", pts, "--model", "cubic", "--out", tmp_path / "f.json"])
            == 2
        )
        assert "model" in capsys.readouterr().err


class TestPlumbing:
    def test_out_dir_env(self, tmp_path, monkeypatch, config_path):
        monkeypatch.setenv("MIXCAP_OUT_DIR", str(tmp_path / "outputs"))
        assert run(["allocate", "--config", config_path]) == 0
        assert (tmp_path / "outputs" / "allocation.json").exists()

    def test_console_script_entry(self, tmp_path, config_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "mixcap.cli",
                "allocate",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "out.json"),
            ],
            capture_output=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["allocate", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["allocate", "--capacity", "abc"], "argument --capacity: invalid float value: 'abc'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
        ids=["unknown-flag", "bad-float", "unknown-command"],
    )
    def test_usage_errors_follow_json_errors(self, tmp_path, capsys, config_path, argv, message):
        argv = [*argv, "--config", config_path, "--out", tmp_path / "a.json"]
        assert run([*argv, "--json-errors"]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert list(err) == ["error"] and err["error"].startswith(message)
        assert captured.out == "" and captured.err.count("\n") == 1
        # Without the flag argparse reports the error itself, as usage text.
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mixcap") and f"error: {message}" in err

    def test_help_with_json_errors_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["allocate", "--help", "--json-errors"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: mixcap allocate") and captured.err == ""

    def test_synbio_mixplan_thresholds_round_trip(self, tmp_path):
        # Generate a corpus, measure its per-fact token cost, and feed the
        # derived universe to the threshold command: the per-fact entropy is
        # the corpus record entropy by construction.
        records = tmp_path / "bios.jsonl"
        k = 50
        assert run(["synbio", "--count", k, "--seed", 11, "--out", records]) == 0
        plan_out = tmp_path / "plan.json"
        assert (
            run(
                [
                    "mixplan",
                    "--total-tokens",
                    1e9,
                    "--ratio",
                    0.1,
                    "--knowledge-tokens",
                    1e5,
                    "--fact-count",
                    k,
                    "--records",
                    records,
                    "--seed",
                    11,
                    "--out",
                    plan_out,
                ]
            )
            == 0
        )
        plan = json.loads(plan_out.read_text())
        p_within = plan["per_fact_frequency"] / plan["mixing_ratio"]
        config = tmp_path / "derived.json"
        config.write_text(
            json.dumps(
                {
                    "mixture": {
                        "knowledge": {
                            "facts": [
                                {"p": p_within, "h": RECORD_ENTROPY_BITS}
                                for _ in range(k)
                            ],
                            "c1": 0.0,
                        },
                        "web": {"power_law": {"c": 1.0, "a": 100.0, "alpha": 0.5}},
                        "r": plan["mixing_ratio"],
                    },
                    "capacity": 1e7,
                }
            )
        )
        thr_out = tmp_path / "derived_thr.json"
        assert run(["thresholds", "--config", config, "--out", thr_out]) == 0
        doc = json.loads(thr_out.read_text())
        derived = json.loads(config.read_text())
        assert derived["mixture"]["knowledge"]["facts"][0]["h"] == pytest.approx(
            RECORD_ENTROPY_BITS, abs=1e-9
        )
        assert doc["m_upper"] - doc["m_lower"] == pytest.approx(
            k * RECORD_ENTROPY_BITS, rel=1e-9
        )


# A valid invocation of every command: (flags, config). Config holds every
# parameter that can come from it, so the table test below can replace one.
_BASE_INVOCATIONS = {
    "allocate": ([], {"mixture": MIX_DOC["mixture"], "capacity": 4000.0}),
    "thresholds": ([], {"mixture": MIX_DOC["mixture"]}),
    "sweep": ([], {"mixture": MIX_DOC["mixture"], "axis": "model_size", "grid": [100.0, 2000.0]}),
    "subsets": ([], {"group_count": 2, "group_size": 2, "capacity_grid": [1e9]}),
    "synbio": ([], {"count": 3, "seed": 1}),
    "mixplan": (
        [],
        {"total_tokens": 1e9, "mixing_ratio": 0.1, "knowledge_tokens": 1e6, "fact_count": 10},
    ),
    "subsample": (["--records", "{records}"], {"keep_ratio": 0.5, "seed": 1}),
    "ckm": (["--records", "{records}"], {"ckm_ratio": 0.2, "seed": 1}),
    "estimate": (["--observations", "{obs}"], {"max_failures": 2}),
    "fit": (["--points", "{points}"], {"model": "loglog"}),
}

_CONFIG_KEYS = [
    (name, row.key)
    for name, command in COMMANDS.items()
    for row in command.params
    if not row.flag_only
]

_INTEGER_KEYS = [
    (name, row.key)
    for name, command in COMMANDS.items()
    for row in command.params
    if not row.flag_only and row.kind in (_integer, _seed)
]


@pytest.fixture
def input_files(tmp_path):
    """The records, observations and points files the base invocations read."""
    records = tmp_path / "records.jsonl"
    assert run(["synbio", "--count", 6, "--seed", 5, "--out", records]) == 0
    obs = tmp_path / "obs.csv"
    obs.write_text("popularity,correct\n" + "".join(f"{i},{int(i > 3)}\n" for i in range(1, 9)))
    points = tmp_path / "points.csv"
    points.write_text("x,y\n1,2\n2,8\n4,32\n")
    return {"records": records, "obs": obs, "points": points}


@pytest.fixture
def cli_inputs(tmp_path, input_files):
    def invoke(name, config_text, out, *extra):
        flags, _ = _BASE_INVOCATIONS[name]
        config = tmp_path / "config.json"
        config.write_text(config_text)
        argv = [f.format(**input_files) for f in flags]
        return run([name, *argv, *extra, "--config", config, "--out", out])

    return invoke


# Flags that these commands do not read, each with a value that would be
# valid if they did, so that only the flag itself can be refused.
_UNDECLARED_FLAGS = [
    *[(name, "--seed", "1")
      for name in ("allocate", "thresholds", "sweep", "subsets", "estimate", "fit")],
    *[(name, "--format", fmt)
      for name, fmt in (("allocate", "json"), ("thresholds", "json"), ("sweep", "csv"),
                        ("subsets", "csv"), ("mixplan", "json"), ("subsample", "jsonl"),
                        ("ckm", "jsonl"), ("estimate", "json"), ("fit", "json"))],
    ("sweep", "--target", "0.8"),
]


class TestParameterTable:
    def test_every_command_has_a_base_invocation(self):
        assert set(_BASE_INVOCATIONS) == set(COMMANDS)

    @pytest.mark.parametrize("name, flag, value", _UNDECLARED_FLAGS)
    def test_undeclared_flag_exits_2(self, tmp_path, capsys, cli_inputs, name, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_inputs(name, json.dumps(_BASE_INVOCATIONS[name][1]), out, flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(_BASE_INVOCATIONS))
    def test_base_invocations_succeed(self, tmp_path, cli_inputs, name):
        out = tmp_path / "out"
        assert cli_inputs(name, json.dumps(_BASE_INVOCATIONS[name][1]), out) == 0
        assert out.exists()

    @pytest.mark.parametrize("name, key", _CONFIG_KEYS)
    def test_wrong_typed_config_value_exits_2_naming_key(
        self, tmp_path, capsys, cli_inputs, name, key
    ):
        config = _BASE_INVOCATIONS[name][1]
        array_kind = key in ("grid", "capacity_grid")
        bad_values = ["1", True, math.nan, ["1"] if array_kind else [1.0]]
        if array_kind:
            bad_values.append([1.0, math.nan])
        for value in bad_values:
            out = tmp_path / "out"
            text = json.dumps({**config, key: value})  # NaN is written as the JSON extension
            assert cli_inputs(name, text, out) == 2, (key, value)
            err = capsys.readouterr().err
            assert key in err, (key, value, err)
            assert "internal" not in err
            assert list(tmp_path.glob("out*")) == []

    def test_integral_float_is_an_integer(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"count": 1e3, "seed": 7e0}')
        out = tmp_path / "bios.jsonl"
        assert run(["synbio", "--config", config, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 1000
        assert run(["synbio", "--count", "1e1", "--seed", 7, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 10
        assert run(["synbio", "--count", "2.5", "--seed", 7, "--out", tmp_path / "x"]) == 2
        assert "count must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key", _INTEGER_KEYS)
    def test_integer_past_the_float_range_exits_2_naming_key(
        self, tmp_path, capsys, cli_inputs, name, key
    ):
        out = tmp_path / "out"
        text = json.dumps({**_BASE_INVOCATIONS[name][1], key: 10**400})
        assert cli_inputs(name, text, out) == 2
        err = capsys.readouterr().err
        assert f"{key} must be " in err and "internal" not in err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_range_names_seed(self, tmp_path, capsys, seed):
        out = tmp_path / "bios.jsonl"
        assert run(["synbio", "--count", 3, "--seed", seed, "--out", out]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "bios.jsonl"
        assert run(["synbio", "--count", 3, "--seed", 2**64 - 1, "--out", out]) == 0

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["mixplan", "--total-tokens", "nan", "--ratio", 0.1, "--knowledge-tokens", 1e6],
             "total_tokens"),
            (["mixplan", "--total-tokens", 1e9, "--ratio", "inf", "--knowledge-tokens", 1e6],
             "mixing_ratio"),
            (["synbio", "--count", 3, "--seed", 1, "--format", "csv"], "format"),
            (["mixplan", "--total-tokens", 1e9, "--ratio", 0.1, "--knowledge-tokens", 1e6,
              "--fact-count", 10**400], "fact_count must be finite"),
        ],
    )
    def test_flag_values_exit_2_naming_key(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_choices_checked_for_flag_and_config(self, tmp_path, capsys, config_path):
        out = tmp_path / "t.json"
        assert run(["thresholds", "--config", config_path, "--units", "foo", "--out", out]) == 2
        assert "units must be one of bits, params" in capsys.readouterr().err
        doc = {**MIX_DOC, "grid": [1.0, 2.0], "axis": "sideways"}
        path = _write_config(tmp_path, doc)
        assert run(["sweep", "--config", path, "--out", out]) == 2
        assert "axis must be one of model_size, mixing_ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_names_key_and_sources(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"mixture": MIX_DOC["mixture"]})
        assert run(["allocate", "--config", path, "--out", tmp_path / "a.json"]) == 2
        assert "'capacity' (config key or --capacity)" in capsys.readouterr().err
        assert run(["subsample", "--keep-ratio", 0.5, "--seed", 1]) == 2
        assert "'records' (--records)" in capsys.readouterr().err

    def test_null_config_value_means_absent(self, tmp_path):
        absent = _write_config(tmp_path, {"mixture": MIX_DOC["mixture"]})
        assert run(["thresholds", "--config", absent, "--out", tmp_path / "a.json"]) == 0
        null = _write_config(tmp_path, {"mixture": MIX_DOC["mixture"], "capacity": None})
        assert run(["thresholds", "--config", null, "--out", tmp_path / "n.json"]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "n.json").read_bytes()

    def test_zero_capacity_on_power_law_web_names_capacity(self, tmp_path, capsys, config_path):
        out = tmp_path / "a.json"
        assert run(["allocate", "--config", config_path, "--capacity", 0, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "capacity 0.0 leaves the web loss infinite" in err
        assert "diverges" in err
        assert not out.exists()


class TestCsvCells:
    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
    def test_points_cell_names_line_and_column(self, tmp_path, capsys, cell):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"x,y\n1,1\n2,{cell}\n3,9\n")
        out = tmp_path / "f.json"
        assert run(["fit", "--points", pts, "--model", "loglog", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "line 3, column 'y'" in err
        assert "internal" not in err
        assert not out.exists()

    def test_missing_cell_names_line_and_column(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n1,1\n2\n3,9\n")
        assert run(["fit", "--points", pts, "--model", "exp", "--out", tmp_path / "f"]) == 2
        assert "line 3, column 'y'" in capsys.readouterr().err

    @pytest.mark.parametrize("row, column", [("abc,1", "popularity"), ("nan,0", "popularity"),
                                             ("0,1", "popularity"), ("-2,0", "popularity"),
                                             ("3,yes", "correct")])
    def test_observation_cell_names_line_and_column(self, tmp_path, capsys, row, column):
        obs = tmp_path / "obs.csv"
        obs.write_text(f"popularity,correct\n1,0\n{row}\n")
        out = tmp_path / "t.json"
        assert run(["estimate", "--observations", obs, "--out", out]) == 2
        assert f"line 3, column '{column}'" in capsys.readouterr().err
        assert not out.exists()


# The library modules each command loads besides the package, the cli and
# its JSON-number check; corpus reads its name lists from mixcap.data.
_CORPUS = {"mixcap.corpus", "mixcap.data"}
_COMMAND_MODULES = {
    "allocate": {"mixcap.universe", "mixcap.allocator"},
    "thresholds": {"mixcap.universe", "mixcap.allocator"},
    "sweep": {"mixcap.universe", "mixcap.allocator", "mixcap.simulator"},
    "subsets": {"mixcap.universe", "mixcap.allocator", "mixcap.simulator", *_CORPUS},
    "synbio": _CORPUS,
    "mixplan": _CORPUS,
    "subsample": _CORPUS,
    "ckm": _CORPUS,
    "estimate": {"mixcap.analysis"},
    # The t quantile's table is read through the data package.
    "fit": {"mixcap.analysis", "mixcap.data"},
}

# Runs in a fresh interpreter: runs argv[2:] through mixcap.cli.main and
# writes its exit code and the mixcap, numpy and scipy modules then loaded
# to argv[1].
_MODULE_PROBE = """
import json, sys

import mixcap.cli

code = mixcap.cli.main(sys.argv[2:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("mixcap", "numpy", "scipy"))
with open(sys.argv[1], "w") as handle:
    json.dump([code, loaded], handle)
"""


# Runs in a fresh interpreter in which importing scipy or numpy fails: runs
# each fit argv of the JSON object argv[1] with --out {model}.json, fits the
# points file argv[2] with fit_loglog, and prints the exit codes and the reprs
# of a prediction and an inversion.
_NO_SCIPY_FITS = """
import json, sys

sys.modules["scipy"] = None
sys.modules["numpy"] = None
from mixcap import analysis, cli

codes = [cli.main([*argv, "--out", f"{model}.json"])
         for model, argv in json.loads(sys.argv[1]).items()]
fit = analysis.fit_loglog(analysis.read_points_csv(sys.argv[2]))
print(json.dumps([codes, repr(analysis.loglog_predict(fit, 3.0)),
                  repr(analysis.invert_size(fit, 10.0))]))
"""


def _fresh_python(args, cwd, check=True, **options):
    """Run python with args in a fresh interpreter that imports this checkout's mixcap."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, check=check, capture_output=True, text=True,
        **options,
    )


class TestImportCost:
    def test_bare_import_loads_no_submodule_numpy_or_scipy(self, tmp_path):
        code = (
            "import sys, mixcap; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
            "('mixcap', 'numpy', 'scipy')))"
        )
        assert _fresh_python(["-c", code], tmp_path).stdout.split() == ["mixcap"]

    @pytest.mark.parametrize("name", sorted(_BASE_INVOCATIONS))
    def test_command_loads_only_its_modules(self, tmp_path, input_files, name):
        flags, config = _BASE_INVOCATIONS[name]
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config))
        argv = [f.format(**input_files) for f in flags]
        argv += ["--config", str(config_path), "--out", str(tmp_path / f"{name}.out")]
        report = tmp_path / "modules.json"
        _fresh_python(["-c", _MODULE_PROBE, str(report), name, *argv], tmp_path)
        code, loaded = json.loads(report.read_text())
        assert code == 0
        mixcap_modules = {m for m in loaded if m.split(".")[0] == "mixcap"}
        assert mixcap_modules == {"mixcap", "mixcap.cli", "mixcap._json", *_COMMAND_MODULES[name]}
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
        if name in ("estimate", "fit"):
            assert [m for m in loaded if m.split(".")[0] == "numpy"] == []

    def test_fits_need_no_scipy_or_numpy(self, tmp_path):
        # In a fresh interpreter where importing scipy or numpy fails, the
        # three fit commands, loglog_predict and invert_size give the bytes
        # of a normal run. The 800-point fit takes the t quantile past its
        # table (dof 798), the 4-point fits from it.
        ratios = tmp_path / "ratios.csv"
        ratios.write_text("x,y\n0.1,50\n0.2,20\n0.4,9\n0.8,4\n")
        points = tmp_path / "points.csv"
        points.write_text("x,y\n" + "".join(f"{i},{i * i * (1 + math.sin(i) / 10)}\n"
                                             for i in range(1, 801)))
        argvs = {model: ["fit", "--points", str(path), "--model", model]
                 for model, path in (("loglog", points), ("exp", ratios), ("power", ratios))}
        (tmp_path / "child").mkdir()
        result = _fresh_python(
            ["-c", _NO_SCIPY_FITS, json.dumps(argvs), str(points)], tmp_path / "child")
        fit = fit_loglog(read_points_csv(points))
        assert json.loads(result.stdout) == [
            [0, 0, 0], repr(loglog_predict(fit, 3.0)), repr(invert_size(fit, 10.0))]
        for model, argv in argvs.items():
            out = tmp_path / f"{model}.json"
            assert run([*argv, "--out", out]) == 0
            assert (tmp_path / "child" / f"{model}.json").read_bytes() == out.read_bytes()

    def test_refused_scalar_loads_no_universe_or_numpy(self, tmp_path):
        # A scalar row is checked before the mixture document is parsed.
        config_path = tmp_path / "nan.json"
        config_path.write_text(json.dumps({"mixture": MIX_DOC["mixture"]}))
        argv = ["allocate", "--config", str(config_path), "--capacity", "nan",
                "--out", str(tmp_path / "a.json")]
        report = tmp_path / "modules.json"
        _fresh_python(["-c", _MODULE_PROBE, str(report), *argv], tmp_path)
        code, loaded = json.loads(report.read_text())
        assert code == 2
        assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
        assert {m for m in loaded if m.split(".")[0] == "mixcap"} == {
            "mixcap", "mixcap.cli", "mixcap._json"}


# Runs argv[1:] through the program entry, cli.main with no argv, and prints
# the exit code, whether the collector is on and how many objects are frozen.
_PROGRAM_GC = """
import gc, json, sys
from mixcap import cli

sys.argv = ["mixcap", *sys.argv[1:]]
try:
    code = cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
"""


def _two_sizes(tmp_path, name):
    """name's argv at a small and a large input: 10 and 1,000 records, or 2 and 200 points."""
    if name == "synbio":
        return [["synbio", "--count", count, "--seed", 3, "--out", tmp_path / "s.jsonl",
                 "--render-out", tmp_path / "s.txt"] for count in (10, 1000)]
    argvs = []
    if name == "sweep":
        for points in (2, 200):
            config = tmp_path / f"sweep{points}.json"
            grid = [10.0 ** (3 * i / (points - 1)) for i in range(points)]
            config.write_text(json.dumps({"mixture": MIX_DOC["mixture"], "axis": "model_size",
                                          "grid": grid}))
            argvs.append(["sweep", "--config", config, "--out", tmp_path / "sweep.csv"])
        return argvs
    flags = {
        "ckm": ["--ckm-ratio", 0.3, "--seed", 2],
        "subsample": ["--keep-ratio", 0.5, "--seed", 2],
        "mixplan": ["--total-tokens", 1e9, "--ratio", 0.1, "--knowledge-tokens", 1e6, "--seed", 2],
    }[name]
    for count in (10, 1000):
        records = tmp_path / f"records{count}.jsonl"
        assert run(["synbio", "--count", count, "--seed", 5, "--out", records]) == 0
        argvs.append([name, "--records", records, *flags, "--out", tmp_path / "out"])
    return argvs


class TestGarbageCollector:
    """Run as the program, main runs with the collector off and freezes the heap at exit."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["allocate"], 0),
            (["allocate", "--capacity", "nan"], 2),
            (["allocate", "--no-such-flag", "--json-errors"], 2),
            (["allocate", "--no-such-flag"], SystemExit),
        ],
        ids=["success", "refused-value", "usage-json", "usage"],
    )
    def test_in_process_main_leaves_the_collector_alone(
        self, tmp_path, capsys, config_path, argv, code, enabled
    ):
        argv = [*argv, "--config", config_path, "--out", tmp_path / "a.json"]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            if code is SystemExit:
                with pytest.raises(SystemExit):
                    run(argv)
            else:
                assert run(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize(
        "extra, code", [([], 0), (["--no-such-flag"], 2)], ids=["success", "usage"]
    )
    def test_program_entry_freezes_the_heap_and_turns_the_collector_on(
        self, tmp_path, config_path, extra, code
    ):
        argv = ["allocate", "--config", str(config_path), "--out", str(tmp_path / "a.json")]
        proc = _fresh_python(["-c", _PROGRAM_GC, *argv, *extra], tmp_path)
        exit_code, enabled, frozen = json.loads(proc.stdout)
        assert (exit_code, enabled) == (code, True) and frozen > 0

    def test_program_usage_error_exits_2(self, tmp_path):
        proc = _fresh_python(["-m", "mixcap.cli", "allocate", "--no-such-flag"], tmp_path,
                             check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: mixcap") and "--no-such-flag" in proc.stderr

    @pytest.mark.parametrize("name", ["synbio", "ckm", "subsample", "mixplan", "sweep"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path, capsys, name):
        small, large = _two_sizes(tmp_path, name)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert run(small) == 0  # the first run imports the command's modules
            gc.collect()
            counts = []
            for argv in (small, large):
                assert run(argv) == 0
                counts.append(gc.collect())
        finally:
            if was_enabled:
                gc.enable()
        assert counts[0] == counts[1]
