"""Placebo (randomization) inference on treatment effects with few clusters."""

from .model import (
    Assignment,
    Cluster,
    ClusterDataset,
    ClusterLayout,
    EstimateVector,
    TestConfig,
    TestResult,
    validate_dataset,
)
from .stats import (
    adjusted_statistic,
    comparison_of_means,
    two_sample_variance,
)
from .engine import (
    enumerate_assignments,
    p_value,
    permutation_quantile,
    randomized_threshold,
    run_placebo_test,
    subsample_assignments,
)
from .estimators import (
    FitResult,
    did_slope,
    estimate_all,
    ols_intercept,
    probit_z_estimate,
)
from .comparators import (
    PooledFit,
    bch_t_test,
    crs_sign_test,
    im_t_test,
    pair_clusters,
    pooled_ols_crve,
    wild_cluster_bootstrap_test,
)
from .dgp import (
    LinearDesign,
    ProbitDesign,
    circular_ma,
    gen_did_panel,
    gen_linear,
    gen_probit,
)
from .harness import (
    ExperimentSpec,
    RejectionTable,
    emit_csv,
    emit_svg,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Cluster",
    "ClusterDataset",
    "ClusterLayout",
    "EstimateVector",
    "ExperimentSpec",
    "FitResult",
    "LinearDesign",
    "PooledFit",
    "ProbitDesign",
    "RejectionTable",
    "TestConfig",
    "TestResult",
    "adjusted_statistic",
    "bch_t_test",
    "circular_ma",
    "comparison_of_means",
    "crs_sign_test",
    "did_slope",
    "emit_csv",
    "emit_svg",
    "enumerate_assignments",
    "estimate_all",
    "gen_did_panel",
    "gen_linear",
    "gen_probit",
    "im_t_test",
    "ols_intercept",
    "p_value",
    "pair_clusters",
    "permutation_quantile",
    "pooled_ols_crve",
    "probit_z_estimate",
    "randomized_threshold",
    "run_experiment",
    "run_placebo_test",
    "subsample_assignments",
    "two_sample_variance",
    "validate_dataset",
    "wild_cluster_bootstrap_test",
]
