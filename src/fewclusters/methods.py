"""The table of inference methods that ``test`` and ``simulate`` both run.

Each entry holds a name, checks that say where the method does not apply,
and a ``run`` function on one shared :class:`Inputs`. Checks read only a
:class:`Setting`, so the harness checks every sweep point before any data
exist. Adding a comparator means adding one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

import numpy as np

from . import comparators, engine, estimators
from .model import ClusterDataset, MethodInapplicable, TestConfig, TestResult

# the random streams a method may draw from, each with its own seed
STREAMS = ("pairing", "crs_u", "bootstrap", "oracle", "subsample")


@dataclass(frozen=True)
class Setting:
    """What decides whether a method applies."""

    estimator: str  # "ols_intercept" | "did_slope" | "probit"
    q1: int
    q0: int
    side: str = "greater"
    adjustment: str = "adjusted"  # read by the placebo test only


@dataclass(frozen=True)
class Inputs:
    """One dataset with the settings its methods share.

    The per-cluster estimates, the matched-pair estimates and the pooled
    regression are computed at most once, when a method first asks. ``seeds``
    maps each of the STREAMS to its seed; "subsample", read only when
    ``max_assignments`` is set, may be absent.
    """

    setting: Setting
    dataset: ClusterDataset
    alpha: float
    seeds: Mapping[str, Any]
    pairing: str = "random"
    max_assignments: Optional[int] = None
    bootstrap_reps: int = 199

    @cached_property
    def estimates(self):
        return estimators.estimate_all(self.dataset, self.setting.estimator)

    @cached_property
    def pair_betas(self) -> np.ndarray:
        seed = self.seeds["pairing"]
        pairs = comparators.pair_clusters(self.dataset, self.pairing, seed)
        if self.setting.estimator == "probit":
            return comparators.pair_beta_probit(self.dataset, pairs)
        return comparators.pair_beta_ols(self.dataset, pairs)

    @cached_property
    def regression(self) -> comparators.PooledRegression:
        return comparators.pooled_regression(self.dataset)


# A check gives the reason why a method does not apply in a setting, or None.
Check = Callable[[Setting], Optional[str]]


def _estimator(*names: str) -> Check:
    need = " or ".join(names)
    return lambda s: None if s.estimator in names else f"it needs the {need} estimator"


def _greater_only(s: Setting) -> Optional[str]:
    return None if s.side == "greater" else f"it tests 'greater' only, not {s.side!r}"


def _matched_pairs(s: Setting) -> Optional[str]:
    return None if s.q1 == s.q0 >= 2 else "it matches clusters in pairs: q1 == q0 >= 2"


def _two_per_group(s: Setting) -> Optional[str]:
    return None if min(s.q1, s.q0) >= 2 else "it needs two clusters per group"


def _adjusted_two_per_group(s: Setting) -> Optional[str]:
    spread = s.adjustment == "adjusted" and min(s.q1, s.q0) < 2
    return "the adjusted statistic needs two clusters per group" if spread else None


@dataclass(frozen=True)
class Method:
    name: str
    run: Callable[[Inputs], TestResult]
    checks: tuple[Check, ...] = ()

    def check(self, s: Setting) -> None:
        """Raise MethodInapplicable, naming method and (q1, q0), if it does not apply."""
        for check in self.checks:
            reason = check(s)
            if reason:
                raise MethodInapplicable(
                    f"{self.name} does not apply at (q1, q0) = ({s.q1}, {s.q0}) "
                    f"with the {s.estimator} estimator: {reason}"
                )


def _placebo(i: Inputs, adjustment: Optional[str] = None) -> TestResult:
    s, seed = i.setting, i.seeds.get("subsample", 0)
    cfg = TestConfig(
        i.alpha, s.side, adjustment or s.adjustment, i.max_assignments, seed
    )
    return engine.run_placebo_test(i.estimates, cfg)


def _im(i: Inputs) -> TestResult:
    return comparators.im_t_test(i.estimates, i.alpha, i.setting.side)


def _crs(i: Inputs, randomized: bool = False) -> TestResult:
    seed = i.seeds["crs_u"] if randomized else None
    return comparators.crs_sign_test(i.pair_betas, i.alpha, randomized, seed)


def _wild_bootstrap(i: Inputs) -> TestResult:
    return comparators.wild_bootstrap_pooled(
        i.regression, i.alpha, i.setting.side, i.bootstrap_reps, i.seeds["bootstrap"]
    )


def _bch_t(i: Inputs) -> TestResult:
    return comparators.bch_t_test(i.regression.fit, i.alpha, i.setting.side)


def _oracle(i: Inputs) -> TestResult:
    """Rejects with probability alpha: the p-value is one uniform draw."""
    u = float(np.random.default_rng(i.seeds["oracle"]).uniform())
    return TestResult(u, i.alpha, u, u < i.alpha, n_assignments=0)


_PAIRED = (_estimator("ols_intercept", "probit"), _greater_only, _matched_pairs)
_OLS = (_estimator("ols_intercept"),)

TABLE: dict[str, Method] = {
    m.name: m
    for m in (
        Method("placebo", _placebo, (_adjusted_two_per_group,)),
        Method("placebo_unadjusted", lambda i: _placebo(i, "unadjusted")),
        Method("im", _im, (_two_per_group,)),
        Method("crs", _crs, _PAIRED),
        Method("crs_randomized", lambda i: _crs(i, randomized=True), _PAIRED),
        Method("wild_bootstrap", _wild_bootstrap, _OLS),
        Method("bch_t", _bch_t, _OLS),
        Method("oracle", _oracle, (_greater_only,)),
    )
}
