"""Child noise streams of a seed, derived without building the children.

Every seeded noise draw comes from a child of
np.random.SeedSequence(seed).spawn(n).  Spawning n children and seeding a
generator from each costs more than the physics of a noisy trial, so
ChildStreams computes, in one vectorised step, the words that numpy would
seed each child's PCG64 with.  A child's entropy is the seed's words, padded
with zeros to the 4-word pool, followed by its spawn key k; its pool is
therefore the parent's pool with one more word mixed in, each pool word d
becoming mix(pool[d], hashmix(k)) at the hash constant that comes after the
parent's own mixing steps.  PCG64 then takes 8 output words hashed from that
pool, read as 4 little-endian uint64.

numpy fixes SeedSequence's output under its stream-compatibility policy;
tests/test_streams.py pins every derived stream against numpy's own spawn.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_POOL_SIZE = 4
_XSHIFT = 16
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of n hash steps, from step start on."""
    h = [init * pow(mult, start + i, 1 << 32) & 0xFFFFFFFF for i in range(n + 1)]
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


# generate_state(4, np.uint64) hashes 8 words, cycling twice through the pool
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)


@functools.lru_cache(maxsize=64)
def _key_terms(extra_words: int, n: int) -> np.ndarray:
    """MIX_R * hashmix(k) for the spawn keys k < n, one column per pool word.

    The parent spends 4 hash steps filling the pool, 12 mixing it and 4 per
    entropy word beyond the pool; the spawn key's steps come next."""
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra_words),
                               _POOL_SIZE)
    h = (np.arange(n, dtype=np.uint32)[:, None] ^ xor) * mul
    h ^= h >> _XSHIFT
    terms = _MIX_R * h
    terms.setflags(write=False)
    return terms


def _child_states(seed: int, n: int) -> np.ndarray:
    """Row k: SeedSequence(seed).spawn(n)[k].generate_state(4, np.uint64)."""
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool
    extra_words = max(0, -(-seed.bit_length() // 32) - _POOL_SIZE)
    mixed = _MIX_L * pool - _key_terms(extra_words, n)
    mixed ^= mixed >> _XSHIFT
    words = np.concatenate((mixed, mixed), axis=1)
    words ^= _STATE_XOR
    words *= _STATE_MUL
    words ^= words >> _XSHIFT
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _derived_seed_type() -> type:
    """The ISeedSequence that hands PCG64 one child's derived state words.

    Defined on first use: importing numpy.random adds about 15 ms to the start
    of every process, and only noisy runs need it."""
    from numpy.random.bit_generator import ISeedSequence

    class DerivedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("a derived child seeds PCG64 only")
            return self.state

    return DerivedSeed


class ChildStreams:
    """The n noise streams of SeedSequence(seed).spawn(n) for a non-negative
    int seed: generator(k) draws exactly what
    default_rng(SeedSequence(seed).spawn(n)[k]) draws.  The children are never
    built, and each generator only when it is asked for."""

    def __init__(self, seed: int, n: int):
        self._states = _child_states(seed, n)

    def generator(self, k: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(_derived_seed_type()(self._states[k])))
