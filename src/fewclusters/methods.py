"""The table of inference methods that ``test`` and ``simulate`` both run.

Each entry holds a name, checks that say where the method does not apply
or would enumerate past the cap, and a ``run`` function that gives, in
group order, each dataset's result or error from one shared
:class:`Inputs`, the datasets of one setting, whose fits run once per
group. Checks read only a :class:`Setting`, so the harness checks every
sweep point before any data exist. Adding a comparator means adding one
entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import comparators, engine, estimators
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

# the random streams of a dataset: its data, then those a method may draw from
STREAMS = ("data", "pairing", "crs_u", "bootstrap", "oracle", "subsample")


def stream(entropy: int, key: tuple[int, ...], name: str) -> np.random.SeedSequence:
    """The seed of one of the STREAMS of the dataset at ``key``: stream i is
    the i-th child that SeedSequence(entropy, spawn_key=key) spawns."""
    return np.random.SeedSequence(entropy, spawn_key=(*key, STREAMS.index(name)))


def group_streams(
    entropy: int, keys: Sequence[tuple[int, ...]], clusters: int
) -> tuple[list[list[np.random.Generator]], np.ndarray]:
    """The streams of the datasets at ``keys``, derived in one pass.

    Returns, for each key, ``default_rng`` of children 0..clusters-1 of its
    data stream, and the seed words, shape (len(keys), len(STREAMS) - 1, 4),
    of its other streams, which :func:`generator` turns into theirs. Each
    is bit for bit what ``stream`` and ``SeedSequence.spawn`` give.
    """
    pools, constants = _key_pools(entropy, keys)
    indices = np.arange(len(STREAMS), dtype=np.uint32)
    streams = _absorb(pools[:, None], indices, constants[:, None, :5])
    cluster_indices = np.arange(clusters, dtype=np.uint32)
    data = _absorb(streams[:, :1], cluster_indices, constants[:, None, 4:])
    words = _seed_words(np.concatenate([data, streams[:, 1:]], axis=1))
    return [list(map(generator, w[:clusters])) for w in words], words[:, clusters:]


def spawn_generators(seed: np.random.SeedSequence, count: int) -> list[np.random.Generator]:
    """``default_rng`` of children 0..count-1 of ``seed``, however many it
    has spawned: the seed is only read, and its spawn counter does not move."""
    if seed.pool_size != 4:
        raise ValueError(f"a stream needs a SeedSequence of pool size 4, got {seed.pool_size}")
    length = max(4, len(_words(seed.entropy))) + len(_words(seed.spawn_key))
    constants = _hash_constants(16 + 4 * (length - 4))[0]
    children = _absorb(seed.pool, np.arange(count, dtype=np.uint32), constants[:5])
    return list(map(generator, _seed_words(children)))


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator that ``default_rng`` makes of a SeedSequence whose
    generate_state(4, np.uint64) gives ``words``."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


@functools.cache
def _seed_words_type() -> type:
    """A SeedSequence for PCG64 that hands it four seed words, already
    generated. It is made on first use: importing numpy.random takes about
    9 ms, which a ``test`` that draws nothing does not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


# The hash of numpy's SeedSequence (NEP 19, numpy/random/bit_generator.pyx),
# run on arrays: a child's entropy is its parent's with its spawn index
# appended, so the child's pool is the parent's pool with that one word
# absorbed. TestSeeding checks every derived stream against numpy's own.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """init * mult**t mod 2**32 for t = start, ..., start + count - 1."""
    steps = range(start, start + count)
    return np.array([init * pow(mult, t, 2**32) % 2**32 for t in steps], np.uint32)


_STATE_CONSTANTS = _powers(_INIT_B, _MULT_B, 0, 9)


@functools.lru_cache(maxsize=16)
def _hash_constants(step: int, rows: int = 1) -> np.ndarray:
    """The hash constants of two absorbed words, (rows, 9): row i those from
    step + 4 * i on, past i more absorbed words."""
    constants = np.array([_powers(_INIT_A, _MULT_A, step + 4 * i, 9) for i in range(rows)])
    constants.flags.writeable = False
    return constants


def _words(value) -> list[int]:
    """The 32-bit words SeedSequence makes of an int or of a sequence of
    them, least significant first: at least one of each int."""
    words = []
    for item in map(int, [value] if isinstance(value, (int, np.integer)) else value):
        words.append(item & 0xFFFFFFFF)
        while item > 0xFFFFFFFF:
            item >>= 32
            words.append(item & 0xFFFFFFFF)
    return words


def _key_pools(entropy: int, keys: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The pools of SeedSequence(entropy, spawn_key=key), (len(keys), 4),
    and for each the constants of the next two words it absorbs.

    Each starts from the pool of SeedSequence(entropy), which has mixed in
    its L entropy words padded to four, each word past the fourth taking
    four steps of the constants after the first sixteen, as with a key;
    then it absorbs its key's words in turn. A key of fewer words stops
    sooner, so each row has its own next constants.
    """
    words = list(map(_words, keys))
    counts = np.array(list(map(len, words)), dtype=np.intp)
    width = counts.max(initial=0)
    table = np.array([w + [0] * (width - len(w)) for w in words], np.uint32)
    constants = _hash_constants(16 + 4 * (max(4, len(_words(entropy))) - 4), width + 1)
    pools = np.tile(np.random.SeedSequence(entropy).pool, (len(keys), 1))
    for i, column in enumerate(table.T):
        absorbed = _absorb(pools, column, constants[i, :5])
        pools = np.where((counts > i)[:, None], absorbed, pools)
    return pools, constants[counts]


def _absorb(pools: np.ndarray, words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """Each pool (the last axis) with one word absorbed, broadcast over the
    leading axes: ``mix`` of pool word i with ``hashmix`` of the word at
    step i of ``constants``."""
    hashed = (words[..., None] ^ constants[..., :4]) * constants[..., 1:5]
    hashed ^= hashed >> 16
    mixed = _MIX_MULT_L * pools - _MIX_MULT_R * hashed
    mixed ^= mixed >> 16
    return mixed


def _seed_words(pools: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of each pool (the last axis)."""
    state = pools[..., [0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_CONSTANTS[:8]
    state *= _STATE_CONSTANTS[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64, copy=False)


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
    in the CLI. ``streams`` holds the seed words that :func:`group_streams`
    gives for them, when the caller derived them with the data; else they
    are derived when a method first asks for a stream, and a method that
    asks for none derives none.

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
        return [generator(w) for w in self._streams[:, STREAMS.index(name) - 1]]

    @cached_property
    def _streams(self) -> np.ndarray:
        if self.streams is None:
            return group_streams(self.entropy, self.keys, 0)[1]
        return self.streams

    @cached_property
    def pair_betas(self) -> list[np.ndarray | FewClustersError]:
        pairs = [
            comparators.pair_clusters(dataset, self.pairing, rng)
            for dataset, rng in zip(self.datasets, self.rngs("pairing"))
        ]
        probit = self.setting.estimator == "probit"
        return comparators.pair_betas(self.datasets, pairs, probit)

    @cached_property
    def sign_flips(self) -> list[np.ndarray | FewClustersError]:
        """Each dataset's sign-flip distribution, all of them one array."""
        return batch(lambda betas: comparators.sign_flip_statistics(np.stack(betas)), self.pair_betas)

    @cached_property
    def regression(self) -> list[comparators.PooledRegression | FewClustersError]:
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
    comparators.check_sign_table(s.q1)


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
    return batch(lambda v: comparators.im_t_tests(v, i.alpha, i.setting.side), i.estimates)


def _crs(i: Inputs, randomized: bool = False) -> list:
    rngs = i.rngs("crs_u") if randomized else [None] * len(i.datasets)
    return batch(
        lambda stats, rngs: comparators.sign_flip_tests(np.stack(stats), i.alpha, randomized, rngs),
        i.sign_flips, rngs,
    )


def _wild_bootstrap(i: Inputs) -> list:
    side, reps = i.setting.side, i.bootstrap_reps
    return each(
        lambda r, rng: comparators.wild_bootstrap_pooled(r, i.alpha, side, reps, rng),
        i.regression, i.rngs("bootstrap"),
    )


def _bch_t(i: Inputs) -> list:
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
        Method("crs", _crs, _PAIRED),
        Method("crs_randomized", lambda i: _crs(i, randomized=True), _PAIRED),
        Method("wild_bootstrap", _wild_bootstrap, _OLS),
        Method("bch_t", _bch_t, _OLS),
        Method("oracle", _oracle, (_greater_only,)),
    )
}
