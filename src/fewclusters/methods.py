"""The table of inference methods that ``test`` and ``simulate`` both run.

Each entry holds a name, checks that say where the method does not apply
or would enumerate past the cap, and a ``run`` function that gives, in
group order, each dataset's result or error from one shared
:class:`Inputs`, the datasets of one setting, whose fits run once per
group. Checks read only a :class:`Setting`, so the harness checks every
sweep point before any data exist. Adding a comparator means adding one
entry. The entries and ``Inputs`` members that call ``comparators`` or
``streams`` import them when they run, so a placebo ``test`` loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine, estimators
from .model import (
    ClusterDataset,
    EstimateVector,
    FewClustersError,
    MethodInapplicable,
    TestConfig,
    TestResult,
    batch,
    each,
)

@dataclass(frozen=True)
class Setting:
    """What decides whether a method applies, and how the placebo test runs."""

    estimator: str  # "ols_intercept" | "did_slope" | "probit"
    q1: int
    q0: int
    side: str = "greater"
    adjustment: str = "adjusted"  # read by the placebo test only
    max_assignments: Optional[int] = None  # placebo draws, when below C(q, q1)


@dataclass(frozen=True)
class Inputs:
    """The datasets of one setting with their seeds: a replication group in
    the harness, a group of one in the CLI. Dataset j draws from the streams
    of ``keys[j]`` under ``entropy``: (sweep index, rep) in the harness, ()
    in the CLI. ``streams`` holds the seed words that
    :func:`~fewclusters.streams.group_streams` gives for them, when the
    caller derived them with the data; else they are derived when a method
    first asks for a stream, and a method that asks for none derives none.

    Each fitted value below is a list over the group, computed for all its
    datasets as one batch when a method first asks. It holds each dataset's
    value, with the bits it has alone, or the error its fit met, which
    becomes that dataset's result in every method that reads it.
    """

    setting: Setting
    datasets: Sequence[ClusterDataset]
    alpha: float
    entropy: int
    keys: Sequence[tuple[int, ...]]
    pairing: str = "random"
    bootstrap_reps: int = 199
    streams: Optional[np.ndarray] = None

    @cached_property
    def estimates(self) -> list[EstimateVector | FewClustersError]:
        return estimators.estimate_many(self.datasets, self.setting.estimator)

    def rngs(self, name: str) -> list[np.random.Generator]:
        """Each dataset's generator of the stream ``name``, built on this call."""
        from .streams import STREAMS, generator

        return [generator(w) for w in self._streams[:, STREAMS.index(name) - 1]]

    @cached_property
    def _streams(self) -> np.ndarray:
        if self.streams is None:
            from .streams import group_streams

            return group_streams(self.entropy, self.keys, 0)[1]
        return self.streams

    @cached_property
    def pair_betas(self) -> list[np.ndarray | FewClustersError]:
        from . import comparators

        pairs = [
            comparators.pair_clusters(dataset, self.pairing, rng)
            for dataset, rng in zip(self.datasets, self.rngs("pairing"))
        ]
        probit = self.setting.estimator == "probit"
        return comparators.pair_betas(self.datasets, pairs, probit)

    @cached_property
    def sign_flips(self) -> list[TestResult | FewClustersError]:
        """Each dataset's nonrandomized sign-change test, the group's tested
        at once: ``crs`` reports it, and ``crs_randomized`` randomizes it."""
        from . import comparators

        return batch(partial(comparators.sign_flip_tests, alpha=self.alpha), self.pair_betas)

    @cached_property
    def regression(self) -> list[comparators.PooledRegression | FewClustersError]:
        from . import comparators

        return comparators.pooled_regressions(self.datasets)


# A check gives the reason why a method does not apply in a setting, or None;
# a cap check raises TooManyAssignments past engine.ENUMERATION_CAP instead.
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


def _placebo_cap(s: Setting) -> None:
    engine.checked_count(s.q1 + s.q0, s.q1, s.max_assignments)


def _sign_cap(s: Setting) -> None:
    engine.sign_flip_count(s.q1)


@dataclass(frozen=True)
class Method:
    name: str
    run: Callable[[Inputs], list[TestResult | FewClustersError]]
    checks: tuple[Check, ...] = ()

    def check(self, s: Setting) -> None:
        """Raise MethodInapplicable, naming method and (q1, q0), if it does not
        apply, and TooManyAssignments if it would enumerate past the cap."""
        for check in self.checks:
            reason = check(s)
            if reason:
                raise MethodInapplicable(
                    f"{self.name} does not apply at (q1, q0) = ({s.q1}, {s.q0}) "
                    f"with the {s.estimator} estimator: {reason}"
                )


def _placebo(i: Inputs, adjustment: Optional[str] = None) -> list:
    s = i.setting
    cfg = TestConfig(i.alpha, s.side, adjustment or s.adjustment, s.max_assignments)
    seeds = i.rngs("subsample") if s.max_assignments else [None] * len(i.datasets)
    return batch(lambda v, seeds: engine.placebo_tests(v, cfg, seeds), i.estimates, seeds)


def _im(i: Inputs) -> list:
    from . import comparators

    return batch(lambda v: comparators.im_t_tests(v, i.alpha, i.setting.side), i.estimates)


def _crs_randomized(i: Inputs) -> list:
    from . import comparators

    return each(comparators.randomized_sign_test, i.sign_flips, i.rngs("crs_u"))


def _wild_bootstrap(i: Inputs) -> list:
    from . import comparators

    side, reps = i.setting.side, i.bootstrap_reps
    return each(
        lambda r, rng: comparators.wild_bootstrap_pooled(r, i.alpha, side, reps, rng),
        i.regression, i.rngs("bootstrap"),
    )


def _bch_t(i: Inputs) -> list:
    from . import comparators

    return batch(
        lambda regressions: comparators.bch_t_tests(
            [r.fit for r in regressions], i.alpha, i.setting.side
        ),
        i.regression,
    )


def _oracle(i: Inputs) -> list:
    """Rejects with probability alpha: each p-value is one uniform draw."""
    p_values = [float(rng.uniform()) for rng in i.rngs("oracle")]
    return [TestResult(u, i.alpha, u, u < i.alpha, n_assignments=0) for u in p_values]


_PAIRED = (_estimator("ols_intercept", "probit"), _greater_only, _matched_pairs, _sign_cap)
_OLS = (_estimator("ols_intercept"),)

TABLE: dict[str, Method] = {
    m.name: m
    for m in (
        Method("placebo", _placebo, (_adjusted_two_per_group, _placebo_cap)),
        Method("placebo_unadjusted", lambda i: _placebo(i, "unadjusted"), (_placebo_cap,)),
        Method("im", _im, (_two_per_group,)),
        Method("crs", lambda i: i.sign_flips, _PAIRED),
        Method("crs_randomized", _crs_randomized, _PAIRED),
        Method("wild_bootstrap", _wild_bootstrap, _OLS),
        Method("bch_t", _bch_t, _OLS),
        Method("oracle", _oracle, (_greater_only,)),
    )
}
