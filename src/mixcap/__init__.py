"""Capacity allocation and phase transitions for knowledge under data mixing.

The toolkit models a bounded-capacity learner trained on a mixture of a
knowledge-dense domain and a web domain: it computes the optimal capacity
split, the phase-transition thresholds in model size / mixing ratio /
per-fact frequency, runs theory-exact sweep and subset experiments,
generates synthetic biography corpora with mixing plans, and estimates
thresholds and scaling-law fits from accuracy observations.
"""

import importlib

# Each public name and the submodule that defines it. Nothing is imported
# until a name is first read (PEP 562), so `import mixcap` loads no
# submodule and no numpy, and a command-line run loads only what it uses.
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, or a library submodule, imported on first read."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
