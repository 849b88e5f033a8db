"""The random streams of a dataset, derived from one master seed.

Dataset ``key`` of a run draws from the children of
``SeedSequence(entropy, spawn_key=key)``, one per name in STREAMS: its
data, then those a method may draw from. :func:`group_streams` derives the
streams of a whole replication group in one array pass, bit for bit what
numpy's own SeedSequence gives.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

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
def _hash_constants(step: int, rows: int) -> np.ndarray:
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
