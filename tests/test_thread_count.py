"""Results do not depend on the BLAS thread count, and the program starts no pool.

Each run happens in a fresh interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy loads it. The inputs are large enough
that a threaded BLAS reduction would split them across threads: a sweep of
a 20,000-fact Pareto mixture and a log-log fit of 100,000 points. Run as the
program (cli.main with no argv), mixcap caps OpenBLAS at one thread unless
the variable is set; called in process, it leaves the environment alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixcap import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: leg, config path, sweep CSV path, fit JSON path. The "program" leg
# sweeps through the program entry, before anything loads numpy; the others
# call cli.main in process. The fit points are made in the child, so no CSV
# is parsed.
_RUN = """
import json, sys
from mixcap import cli

leg, config, sweep_out, fit_out = sys.argv[1:]
command = ["sweep", "--config", config, "--out", sweep_out]
if leg == "program":
    sys.argv = ["mixcap", *command]
    assert cli.main() == 0
else:
    assert cli.main(command) == 0
import numpy as np
from mixcap import analysis

rng = np.random.default_rng(5)
x = np.geomspace(1.0, 1e6, 100_000)
y = 3.0 * x**-0.7 * np.exp(rng.normal(0.0, 0.1, x.size))
fit = analysis.fit_loglog(zip(x.tolist(), y.tolist()))
with open(fit_out, "w") as handle:
    json.dump(fit.to_dict(), handle)
"""


def pareto_sweep_config(path):
    rng = np.random.default_rng(11)
    raw = rng.pareto(1.5, 20_000) + 1.0
    p, h = raw / raw.sum(), rng.uniform(20.0, 60.0, raw.size)
    doc = {
        "mixture": {
            "knowledge": {"facts": [{"p": a, "h": b} for a, b in zip(p.tolist(), h.tolist())],
                          "c1": 0.5},
            "web": {"power_law": {"c": 1.0, "a": 1e5, "alpha": 0.3}},
            "r": 0.05,
        },
        "axis": "model_size",
        "grid": np.geomspace(1e3, 1e10, 200).tolist(),
    }
    path.write_text(json.dumps(doc))
    return path


def _child_env(threads):
    """The environment with src on the path and OPENBLAS_NUM_THREADS as given (None: unset)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = path
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def test_sweep_and_fit_are_byte_identical_at_one_and_two_threads(tmp_path):
    config = pareto_sweep_config(tmp_path / "config.json")
    outputs = {}
    # The program leg runs with the variable unset, as the console script would.
    for leg, threads in (("1", "1"), ("2", "2"), ("program", None)):
        sweep, fit = tmp_path / f"sweep{leg}.csv", tmp_path / f"fit{leg}.json"
        subprocess.run(
            [sys.executable, "-c", _RUN, leg, str(config), str(sweep), str(fit)],
            env=_child_env(threads), cwd=tmp_path, check=True, capture_output=True,
        )
        outputs[leg] = (sweep.read_bytes(), fit.read_bytes())
    assert len(outputs["1"][0].splitlines()) == 201
    assert outputs["1"] == outputs["2"] == outputs["program"]


# Runs the program entry on a command that loads numpy, then prints the
# variable and the number of threads in the process (-1 without /proc).
_PROGRAM = """
import json, os, sys
from mixcap import cli

sys.argv = ["mixcap", *sys.argv[1:]]
code = cli.main()
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else -1
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def small_sweep_argv(tmp_path):
    """A sweep of a two-fact mixture: a command that loads numpy."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mixture": {
            "knowledge": {"facts": [{"p": 0.5, "h": 1.0}, {"p": 0.1, "h": 1.0}]},
            "web": {"power_law": {"c": 1.0, "a": 100.0, "alpha": 0.5}},
            "r": 0.25,
        },
        "axis": "model_size",
        "grid": [1.0, 10.0, 100.0],
    }))
    return ["sweep", "--config", str(config), "--out", str(tmp_path / "sweep.csv")]


@pytest.mark.parametrize("preset", [None, "2"])
def test_program_entry_caps_openblas_unless_set(tmp_path, preset):
    argv = small_sweep_argv(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM, *argv],
        env=_child_env(preset), cwd=tmp_path, check=True, capture_output=True, text=True,
    )
    code, variable, threads = json.loads(proc.stdout)
    assert code == 0
    assert variable == (preset or "1")
    if threads == -1:
        return  # no /proc to count threads in
    if preset is None:
        assert threads == 1
    elif (os.cpu_count() or 1) >= 2:
        assert threads > 1  # the preset value is honoured: OpenBLAS started a pool


def test_in_process_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cli.main(small_sweep_argv(tmp_path)) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
