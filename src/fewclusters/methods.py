"""The table of inference methods that ``test`` and ``simulate`` both run.

Each entry holds a name, checks that say where the method does not apply,
and a ``run`` function that gives dataset j's result from one shared
:class:`Inputs`, the datasets of one setting. Their fits run once per
group, and a dataset whose fit failed holds the error, which its methods
raise. Checks read only a :class:`Setting`, so the harness checks every
sweep point before any data exist. Adding a comparator means adding one
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from . import comparators, engine, estimators
from .model import (
    ClusterDataset,
    EstimateVector,
    FewClustersError,
    MethodInapplicable,
    TestConfig,
    TestResult,
    each,
    unwrap,
)

# the random streams a method may draw from, each with its own seed
STREAMS = ("pairing", "crs_u", "bootstrap", "oracle", "subsample")


def seed_streams(seed: int) -> dict[str, np.random.SeedSequence]:
    """The seed of each of the STREAMS: stream i is the i-th child that
    SeedSequence(seed) spawns."""
    return dict(zip(STREAMS, np.random.SeedSequence(seed).spawn(len(STREAMS))))


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
    """The datasets of one setting with their seeds: a replication group in
    the harness, a group of one in the CLI. ``seeds[j]`` maps each of the
    STREAMS to dataset j's seed; "subsample", read only when
    ``max_assignments`` is set, may be absent.

    Each fitted value below is a list over the group, computed for all its
    datasets as one batch when a method first asks. It holds each dataset's
    value, with the bits it has alone, or the error its fit met, which a
    method raises when it reads it.
    """

    setting: Setting
    datasets: Sequence[ClusterDataset]
    alpha: float
    seeds: Sequence[Mapping[str, Any]]
    pairing: str = "random"
    max_assignments: Optional[int] = None
    bootstrap_reps: int = 199

    @cached_property
    def estimates(self) -> list[EstimateVector | FewClustersError]:
        return estimators.estimate_many(self.datasets, self.setting.estimator)

    @cached_property
    def pair_betas(self) -> list[np.ndarray | FewClustersError]:
        pairs = [
            comparators.pair_clusters(dataset, self.pairing, seeds["pairing"])
            for dataset, seeds in zip(self.datasets, self.seeds)
        ]
        probit = self.setting.estimator == "probit"
        return comparators.pair_betas(self.datasets, pairs, probit)

    @cached_property
    def sign_flips(self) -> list[np.ndarray | FewClustersError]:
        return each(comparators.sign_flip_statistics, self.pair_betas)

    @cached_property
    def regression(self) -> list[comparators.PooledRegression | FewClustersError]:
        return comparators.pooled_regressions(self.datasets)


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
    run: Callable[[Inputs, int], TestResult]  # (inputs, j): dataset j's result
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


def _placebo(i: Inputs, j: int, adjustment: Optional[str] = None) -> TestResult:
    s, seed = i.setting, i.seeds[j].get("subsample", 0)
    cfg = TestConfig(i.alpha, s.side, adjustment or s.adjustment, i.max_assignments, seed)
    return engine.run_placebo_test(unwrap(i.estimates[j]), cfg)


def _im(i: Inputs, j: int) -> TestResult:
    return comparators.im_t_test(unwrap(i.estimates[j]), i.alpha, i.setting.side)


def _crs(i: Inputs, j: int, randomized: bool = False) -> TestResult:
    seed = i.seeds[j]["crs_u"] if randomized else None
    return comparators.sign_flip_test(unwrap(i.sign_flips[j]), i.alpha, randomized, seed)


def _wild_bootstrap(i: Inputs, j: int) -> TestResult:
    return comparators.wild_bootstrap_pooled(
        unwrap(i.regression[j]), i.alpha, i.setting.side, i.bootstrap_reps,
        i.seeds[j]["bootstrap"],
    )


def _bch_t(i: Inputs, j: int) -> TestResult:
    return comparators.bch_t_test(unwrap(i.regression[j]).fit, i.alpha, i.setting.side)


def _oracle(i: Inputs, j: int) -> TestResult:
    """Rejects with probability alpha: the p-value is one uniform draw."""
    u = float(np.random.default_rng(i.seeds[j]["oracle"]).uniform())
    return TestResult(u, i.alpha, u, u < i.alpha, n_assignments=0)


_PAIRED = (_estimator("ols_intercept", "probit"), _greater_only, _matched_pairs)
_OLS = (_estimator("ols_intercept"),)

TABLE: dict[str, Method] = {
    m.name: m
    for m in (
        Method("placebo", _placebo, (_adjusted_two_per_group,)),
        Method("placebo_unadjusted", lambda i, j: _placebo(i, j, "unadjusted")),
        Method("im", _im, (_two_per_group,)),
        Method("crs", _crs, _PAIRED),
        Method("crs_randomized", lambda i, j: _crs(i, j, randomized=True), _PAIRED),
        Method("wild_bootstrap", _wild_bootstrap, _OLS),
        Method("bch_t", _bch_t, _OLS),
        Method("oracle", _oracle, (_greater_only,)),
    )
}
