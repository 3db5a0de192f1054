"""Guards against drift of the README examples and the module exports."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mixcap

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)

# Every module but the command-line entry point declares its public names.
LIBRARY_MODULES = sorted(
    f"mixcap.{info.name}" for info in pkgutil.iter_modules(mixcap.__path__) if info.name != "cli"
)


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


# The package's public surface: each name and the module that defines it.
PACKAGE_NAMES = {
    "universe": "KnowledgeUniverse MixtureUniverse PowerLawCurve TabulatedCurve WebLossCurve "
    "eval_web_loss web_marginal m0_minus warmup_loss knowledge_frontier "
    "mixture_from_dict mixture_to_dict",
    "allocator": "Allocation ThresholdReport optimal_allocation full_threshold_report "
    "apply_subsampling apply_ckm",
    "simulator": "SweepConfig SweepRow SubsetExperiment SubsetCapacityResult accuracy "
    "count_accuracy sweep run_subset_experiment",
    "corpus": "AttributeDomain BiographyRecord MixPlan ATTRIBUTES RECORD_ENTROPY_BITS "
    "generate_synbio render_exposure power_law_partition plan_mixture subsample_corpus "
    "ckm_augment",
    "analysis": "AccuracyObservation FitResult estimate_threshold_popularity fit_exponential "
    "fit_power_law fit_loglog loglog_predict invert_size",
}
PACKAGE_EXPORTS = [
    (module, name) for module, names in PACKAGE_NAMES.items() for name in names.split()
]


def test_package_exports_45_names():
    assert len(PACKAGE_EXPORTS) == 45
    assert sorted(mixcap.__all__) == sorted(name for _, name in PACKAGE_EXPORTS)
    assert set(mixcap.__all__) <= set(dir(mixcap))


@pytest.mark.parametrize("module, name", PACKAGE_EXPORTS)
def test_package_name_is_its_modules_object(module, name):
    defining = importlib.import_module(f"mixcap.{module}")
    assert getattr(mixcap, name) is getattr(defining, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from mixcap import *", namespace)
    for module, name in PACKAGE_EXPORTS:
        assert namespace[name] is getattr(importlib.import_module(f"mixcap.{module}"), name)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixcap.no_such_name


def test_version_is_unchanged():
    assert mixcap.__version__ == "0.1.0"
