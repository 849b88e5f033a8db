"""Placebo (randomization) inference on treatment effects with few clusters."""

from .model import (
    Cluster,
    ClusterDataset,
    ClusterLayout,
    EstimateVector,
    TestConfig,
    TestResult,
    validate_dataset,
)
from .engine import (
    p_value,
    permutation_quantile,
    randomized_threshold,
    run_placebo_test,
)
from .estimators import (
    FitResult,
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
    "bch_t_test",
    "circular_ma",
    "crs_sign_test",
    "emit_csv",
    "emit_svg",
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
    "validate_dataset",
    "wild_cluster_bootstrap_test",
]
