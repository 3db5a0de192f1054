"""Capacity allocation and phase transitions for knowledge under data mixing.

The toolkit models a bounded-capacity learner trained on a mixture of a
knowledge-dense domain and a web domain: it computes the optimal capacity
split, the phase-transition thresholds in model size / mixing ratio /
per-fact frequency, runs theory-exact sweep and subset experiments,
generates synthetic biography corpora with mixing plans, and estimates
thresholds and scaling-law fits from accuracy observations.
"""

from .universe import (
    KnowledgeUniverse,
    MixtureUniverse,
    PowerLawCurve,
    TabulatedCurve,
    WebLossCurve,
    eval_web_loss,
    web_marginal,
    m0_minus,
    m0_plus,
    warmup_loss,
    knowledge_frontier,
    mixture_from_dict,
    mixture_from_json,
    mixture_to_dict,
    mixture_to_json,
)
from .allocator import (
    Allocation,
    ThresholdReport,
    optimal_allocation,
    full_threshold_report,
    apply_subsampling,
    apply_ckm,
)
from .simulator import (
    SweepConfig,
    SweepRow,
    SubsetExperiment,
    SubsetCapacityResult,
    accuracy,
    count_accuracy,
    sweep,
    run_subset_experiment,
    threshold_law,
)
from .corpus import (
    AttributeDomain,
    BiographyRecord,
    MixPlan,
    ATTRIBUTES,
    RECORD_ENTROPY_BITS,
    generate_synbio,
    render_exposure,
    power_law_partition,
    plan_mixture,
    subsample_corpus,
    ckm_augment,
)
from .analysis import (
    AccuracyObservation,
    FitResult,
    estimate_threshold_popularity,
    fit_exponential,
    fit_power_law,
    fit_loglog,
    loglog_predict,
    invert_size,
    r_squared,
)

__version__ = "0.1.0"
