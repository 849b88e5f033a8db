"""The table of inference methods that ``test`` and ``simulate`` both run.

Each entry holds a name, checks that say where the method does not apply,
and a ``run`` function on one shared :class:`Inputs`. Checks read only a
:class:`Setting`, so the harness checks every sweep point before any data
exist. Adding a comparator means adding one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

import numpy as np

from . import comparators, engine, estimators
from .model import (
    ClusterDataset,
    EstimateVector,
    MethodInapplicable,
    TestConfig,
    TestResult,
)

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

    The per-cluster estimates, the matched-pair estimates, their sign-flip
    distribution and the pooled regression are computed at most once, when
    a method first asks. ``seeds`` maps each of the STREAMS to its seed;
    "subsample", read only when ``max_assignments`` is set, may be absent.
    Inputs of one setting may share a ``batch`` list, themselves included:
    the first to ask for a fitted value then fits it for every member in one
    batch, each value with the bits it has alone.
    """

    setting: Setting
    dataset: ClusterDataset
    alpha: float
    seeds: Mapping[str, Any]
    pairing: str = "random"
    max_assignments: Optional[int] = None
    bootstrap_reps: int = 199
    batch: Optional[list] = field(default=None, compare=False, repr=False)

    def _batched(self, name: str, fit: Callable[[list["Inputs"]], list]):
        """The member's value ``name``, fitting it for the whole batch, as
        ``fit`` of the members, when it is missing; kept as a cached
        property keeps it."""
        if name not in self.__dict__:
            members = [i for i in self.batch or [self] if name not in i.__dict__]
            for member, value in zip(members, fit(members)):
                member.__dict__[name] = value
        return self.__dict__[name]

    @property
    def estimates(self) -> EstimateVector:
        return self._batched("estimates", lambda members: estimators.estimate_many(
            [i.dataset for i in members], self.setting.estimator
        ))

    @property
    def pair_betas(self) -> np.ndarray:
        def fit(members):
            pairs = [
                comparators.pair_clusters(i.dataset, i.pairing, i.seeds["pairing"])
                for i in members
            ]
            probit = self.setting.estimator == "probit"
            return comparators.pair_betas([i.dataset for i in members], pairs, probit)

        return self._batched("pair_betas", fit)

    @cached_property
    def sign_flips(self) -> np.ndarray:
        return comparators.sign_flip_statistics(self.pair_betas)

    @property
    def regression(self) -> comparators.PooledRegression:
        return self._batched("regression", lambda members: comparators.pooled_regressions(
            [i.dataset for i in members]
        ))


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
    return comparators.sign_flip_test(i.sign_flips, i.alpha, randomized, seed)


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
