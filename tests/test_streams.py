"""ChildStreams against numpy's own SeedSequence.spawn.

The helper recomputes what SeedSequence does inside numpy, so these tests pin
every derived stream to numpy itself; they must pass on every numpy the
project supports."""

import numpy as np
import pytest

from qdilemma.streams import ChildStreams

# around every word boundary of the entropy, and past the 4-word pool
SEEDS = [0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 5, 2**128 - 1, 2**128,
         2**160 + 9]


def spawned(seed, n, k):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(n)[k])


def draws(rng):
    return rng.normal(size=16).tobytes()


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("seed", SEEDS)
def test_each_stream_draws_what_numpys_child_draws(seed, n):
    streams = ChildStreams(seed, n)
    for k in range(n):
        assert draws(streams.generator(k)) == draws(spawned(seed, n, k)), k


@pytest.mark.parametrize("seed", [5, 2**128 + 1])
def test_each_stream_starts_in_the_childs_state(seed):
    streams = ChildStreams(seed, 4)
    for k in range(4):
        assert streams.generator(k).bit_generator.state == spawned(seed, 4, k).bit_generator.state


def test_each_generator_restarts_its_stream():
    streams = ChildStreams(11, 2)
    assert draws(streams.generator(1)) == draws(streams.generator(1))
    assert draws(streams.generator(0)) != draws(streams.generator(1))


def test_a_numpy_integer_seed_is_its_value():
    for seed in (np.uint32(7), np.int64(7)):
        assert draws(ChildStreams(seed, 3).generator(2)) == draws(spawned(7, 3, 2))


def test_a_negative_seed_is_refused_like_numpy_refuses_it():
    with pytest.raises(ValueError, match="non-negative"):
        ChildStreams(-1, 3)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a dev dependency; the pinned seeds above run without it
    given = None

if given is not None:
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(st.integers(0, 2**200), st.integers(1, 12), st.data())
    def test_any_seed_draws_what_numpys_child_draws(seed, n, data):
        k = data.draw(st.integers(0, n - 1))
        assert draws(ChildStreams(seed, n).generator(k)) == draws(spawned(seed, n, k))
