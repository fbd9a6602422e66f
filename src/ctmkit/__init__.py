"""Conformal test martingales with Bayes-Kelly betting, exact optimality
certificates and binary maximum-likelihood e-processes."""

from .betting import (
    BettingMartingale,
    ConstantBettor,
    PiecewiseDensity,
    ShrunkAlternativeBettor,
)
from .bayes_kelly import (
    BayesKellyBettor,
    CollapsedBayesKellyBettor,
    HypothesisSet,
    bayes_kelly_bettor,
    extend,
)
from .conformal import (
    ConformityMeasure,
    DistanceToMeanMeasure,
    IdentityMeasure,
    StepRecord,
    ctm_run,
    pvalue_step,
    read_observation_stream,
    score_window,
)
from .eprocess import (
    EProcessRecord,
    example_distinct_report,
    log_empirical_ml,
    log_ml_sup,
    run_eprocess,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    audit_trajectory,
    run_eprocess as run_eprocess_suite,
    run_optimality,
    run_simulate,
    run_validate,
)
from .models import (
    AlternativeModel,
    HiddenStateModel,
    PointMassModel,
    TableModel,
    changepoint_model,
    iid_model,
    markov_model,
)
from .oracle import (
    CellPath,
    cell_tree,
    evariable_expectation,
    expected_log_wealth,
    node_plan,
    pushforward_kl,
    sample_betting_family,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeModel",
    "BayesKellyBettor",
    "BettingMartingale",
    "CellPath",
    "CollapsedBayesKellyBettor",
    "ConfigError",
    "ConformityMeasure",
    "ConstantBettor",
    "DistanceToMeanMeasure",
    "EProcessRecord",
    "ExperimentConfig",
    "HiddenStateModel",
    "HypothesisSet",
    "IdentityMeasure",
    "PiecewiseDensity",
    "PointMassModel",
    "ShrunkAlternativeBettor",
    "StepRecord",
    "TableModel",
    "audit_trajectory",
    "bayes_kelly_bettor",
    "cell_tree",
    "changepoint_model",
    "ctm_run",
    "evariable_expectation",
    "example_distinct_report",
    "expected_log_wealth",
    "extend",
    "iid_model",
    "log_empirical_ml",
    "log_ml_sup",
    "markov_model",
    "node_plan",
    "pushforward_kl",
    "pvalue_step",
    "read_observation_stream",
    "run_eprocess",
    "run_eprocess_suite",
    "run_optimality",
    "run_simulate",
    "run_validate",
    "sample_betting_family",
    "score_window",
]
