"""Results do not depend on the BLAS thread count.

Each run happens in a fresh interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy loads it. The inputs are large enough
that a threaded BLAS reduction would split them across threads: a sweep of
a 20,000-fact Pareto mixture and a log-log fit of 100,000 points.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: config path, sweep CSV path, fit JSON path. The fit points are made
# in the child, so no CSV is parsed.
_RUN = """
import json, sys
import numpy as np
from mixcap import analysis, cli

config, sweep_out, fit_out = sys.argv[1:]
assert cli.main(["sweep", "--config", config, "--out", sweep_out]) == 0
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


def test_sweep_and_fit_are_byte_identical_at_one_and_two_threads(tmp_path):
    config = pareto_sweep_config(tmp_path / "config.json")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        sweep, fit = tmp_path / f"sweep{threads}.csv", tmp_path / f"fit{threads}.json"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-c", _RUN, str(config), str(sweep), str(fit)],
            env=env, cwd=tmp_path, check=True, capture_output=True,
        )
        outputs[threads] = (sweep.read_bytes(), fit.read_bytes())
    assert len(outputs["1"][0].splitlines()) == 201
    assert outputs["1"][0] == outputs["2"][0]
    assert outputs["1"][1] == outputs["2"][1]
