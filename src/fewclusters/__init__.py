"""Placebo (randomization) inference on treatment effects with few clusters.

The public names below are imported from their modules on first access
(PEP 562), so ``import fewclusters`` loads no submodule, and a command
loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    **dict.fromkeys(
        (
            "Cluster",
            "ClusterDataset",
            "ClusterLayout",
            "EstimateVector",
            "TestConfig",
            "TestResult",
            "validate_dataset",
        ),
        "model",
    ),
    **dict.fromkeys(
        ("p_value", "permutation_quantile", "randomized_threshold", "run_placebo_test"),
        "engine",
    ),
    **dict.fromkeys(
        ("FitResult", "estimate_all", "ols_intercept", "probit_z_estimate"), "estimators"
    ),
    **dict.fromkeys(
        (
            "PooledFit",
            "bch_t_test",
            "crs_sign_test",
            "im_t_test",
            "pair_clusters",
            "pooled_ols_crve",
            "wild_cluster_bootstrap_test",
        ),
        "comparators",
    ),
    **dict.fromkeys(
        ("LinearDesign", "ProbitDesign", "circular_ma", "gen_linear", "gen_probit"), "dgp"
    ),
    **dict.fromkeys(
        ("ExperimentSpec", "RejectionTable", "emit_csv", "emit_svg", "run_experiment"),
        "harness",
    ),
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
