"""Results do not depend on which SIMD code numpy dispatches to.

numpy picks SIMD kernels for some ufuncs (np.power and np.log among them) at
run time from the CPU's features, and their last bit can differ from the C
library's. Each run happens in a fresh interpreter, because numpy reads
NPY_DISABLE_CPU_FEATURES once, when it loads. One run disables every
dispatched target that is active on this CPU; its artifacts must equal those
of a default run byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: input directory, output directory.
_RUN = """
import sys
from mixcap import cli

inp, out = sys.argv[1:]
commands = [
    ["allocate", "--config", f"{inp}/pareto.json", "--capacity", "5e4", "--out", f"{out}/allocate.json"],
    ["thresholds", "--config", f"{inp}/uniform.json", "--capacity", "1e5", "--out", f"{out}/thresholds.json"],
    ["sweep", "--config", f"{inp}/pareto.json", "--axis", "model_size", "--out", f"{out}/model.csv"],
    ["sweep", "--config", f"{inp}/ratio.json", "--axis", "mixing_ratio", "--capacity", "3e4",
     "--out", f"{out}/ratio.csv"],
    ["subsets", "--out", f"{out}/subsets.csv"],
    ["fit", "--points", f"{inp}/points.csv", "--model", "loglog", "--out", f"{out}/fit.json"],
]
for argv in commands:
    assert cli.main(argv) == 0, argv
"""

# Prints the dispatched targets active in a fresh interpreter, so a run can
# show that NPY_DISABLE_CPU_FEATURES took effect.
_ACTIVE = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(" ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)))
"""


def _env(**extra):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if not k.startswith("NPY_")}
    return {**env, "PYTHONPATH": path, **extra}


def _active_targets(env):
    result = subprocess.run([sys.executable, "-c", _ACTIVE], env=env, check=True,
                            capture_output=True, text=True)
    return result.stdout.split()


def _write_inputs(inp):
    rng = np.random.default_rng(3)
    raw = rng.pareto(1.5, 2000) + 1.0
    p, h = raw / raw.sum(), rng.uniform(1.0, 50.0, raw.size)
    pareto = {
        "knowledge": {"facts": [{"p": a, "h": b} for a, b in zip(p.tolist(), h.tolist())],
                      "c1": 0.5},
        "web": {"power_law": {"c": 1.0, "a": 1e3, "alpha": 0.3}},
        "r": 0.2,
    }
    uniform = {
        "knowledge": {"facts": [{"p": 1e-3, "h": 5.0}], "c1": 0.0},
        "web": {"power_law": {"c": 1.0, "a": 1000.0, "alpha": 0.3}},
        "r": 0.25,
    }
    grid = np.geomspace(10.0, 1e6, 50).tolist()
    (inp / "pareto.json").write_text(json.dumps({"mixture": pareto, "grid": grid}))
    ratios = np.linspace(0.01, 0.9, 50).tolist()
    (inp / "ratio.json").write_text(json.dumps({"mixture": pareto, "grid": ratios}))
    (inp / "uniform.json").write_text(json.dumps({"mixture": uniform}))
    # Abscissae whose logarithm numpy's AVX-512 kernel rounds apart from libm's.
    xs = [68803.79991573592, 80843.28601530324, 213317.56448705448, 501695.8440154931]
    (inp / "points.csv").write_text(
        "x,y\n" + "".join(f"{x!r},{3.0 * x ** -0.7 * (1.0 + 0.01 * i)!r}\n"
                          for i, x in enumerate(xs)))


def test_artifacts_are_byte_identical_with_dispatch_disabled(tmp_path):
    targets = _active_targets(_env())
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target on this CPU")
    inp = tmp_path / "in"
    inp.mkdir()
    _write_inputs(inp)
    envs = {"default": _env(), "disabled": _env(NPY_DISABLE_CPU_FEATURES=" ".join(targets))}
    assert _active_targets(envs["disabled"]) == []
    outputs = {}
    for name, env in envs.items():
        out = tmp_path / name
        out.mkdir()
        subprocess.run([sys.executable, "-c", _RUN, str(inp), str(out)],
                       env=env, cwd=tmp_path, check=True, capture_output=True)
        outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs["default"]) == 9
    assert outputs["default"] == outputs["disabled"]
