"""Saturated instrumental-variables estimation with many covariate groups.

The package groups observations by unique covariate value, interacts a binary
instrument with the group dummies, and provides a jackknife-style estimator
whose bias does not grow with the number of groups, together with a variance
estimator that is robust to treatment-effect heterogeneity, many instruments,
and heteroskedasticity.  ``Fit(design, Y, T)`` reads one sample's rows once
for all of its inference; ``sive_report``, ``robust_ci``, ``robust_test``
and both variances are its methods on a fresh fit.  Saturated TSLS and JIVE
baselines, population-level estimands and a Monte Carlo harness round out
the library.  The dense reference implementation (``sivreg.oracle``) and the
CSV/JSON command line (``sivreg.cli``) are imported from their own modules;
``import sivreg`` loads neither.  So are the per-observation references the
tests compare the moment table against: the operators and ``SmallCellError``
from ``sivreg.blockops``, ``hartley_sigma`` and ``SigmaEstimates`` from
``sivreg.inference``.
"""

from .design import (
    DesignError,
    EmptyDesignError,
    GroupAudit,
    Sample,
    SaturatedDesign,
    build_design,
    design_summary,
    filter_design,
    validate_group_sizes,
)
from .blockops import (
    DegenerateGroupError,
    GroupSizeError,
    projection_diag_P,
    trace_A_squared,
)
from .estimators import (
    EstimationError,
    EstimatorKind,
    PopulationInputs,
    RankDeficiencyError,
    WeakDenominatorError,
    estimate_jive1,
    estimate_jive2,
    estimate_sive,
    estimate_tsls,
    estimate_tsls_generic,
    first_stage_strength,
    population_estimand,
    population_moments,
)
from .inference import (
    Fit,
    InferenceReport,
    NonpositiveVarianceError,
    chao_variance,
    confidence_interval,
    robust_ci,
    robust_test,
    sive_report,
    sive_variance,
    t_test,
)
from .simulation import (
    SimConfig,
    SimDraw,
    generate_sample,
    halton,
    replication_seed,
    run_bias_experiment,
    run_size_experiment,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "DesignError",
    "EmptyDesignError",
    "GroupAudit",
    "Sample",
    "SaturatedDesign",
    "build_design",
    "design_summary",
    "filter_design",
    "validate_group_sizes",
    "DegenerateGroupError",
    "GroupSizeError",
    "projection_diag_P",
    "trace_A_squared",
    "EstimationError",
    "EstimatorKind",
    "PopulationInputs",
    "RankDeficiencyError",
    "WeakDenominatorError",
    "estimate_jive1",
    "estimate_jive2",
    "estimate_sive",
    "estimate_tsls",
    "estimate_tsls_generic",
    "first_stage_strength",
    "population_estimand",
    "population_moments",
    "Fit",
    "InferenceReport",
    "NonpositiveVarianceError",
    "chao_variance",
    "confidence_interval",
    "robust_ci",
    "robust_test",
    "sive_report",
    "sive_variance",
    "t_test",
    "SimConfig",
    "SimDraw",
    "generate_sample",
    "halton",
    "replication_seed",
    "run_bias_experiment",
    "run_size_experiment",
    "summarize",
    "__version__",
]
