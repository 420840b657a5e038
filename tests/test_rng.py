"""rng_from against numpy's own Generator(PCG64(seed)): the compiled
SeedSequence hash must give the same state, and so the same streams."""

import numpy as np
import pytest

from gsample.rng import child_seed, rng_from

# the word-count edges of numpy's seed split, 2^64 (which graphs'
# seed + attempt can reach from a 64-bit child seed) and seeds of more
# than the pool's four words
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64,
              2**128 - 1, 2**128 + 5]


def _numpy_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_rng_from_has_numpys_state_at_the_word_edges(seed):
    assert rng_from(seed).bit_generator.state == np.random.PCG64(seed).state


def test_rng_from_has_numpys_state_on_child_seeds():
    for i in range(10_000):
        seed = child_seed("rng", i)
        assert rng_from(seed).bit_generator.state == \
            np.random.PCG64(seed).state, seed


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**128 + 5,
                                  child_seed("rng", "streams")])
def test_rng_from_draws_numpys_streams(seed):
    ours, theirs = rng_from(seed), _numpy_rng(seed)
    assert np.array_equal(ours.normal(0.0, 0.3, size=64),
                          theirs.normal(0.0, 0.3, size=64))
    assert np.array_equal(ours.random(64), theirs.random(64))
    assert np.array_equal(ours.choice(200, size=30, replace=False),
                          theirs.choice(200, size=30, replace=False))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("n_words", [0, 1, 3, 8])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64, "uint32", "u8"])
def test_the_seed_hash_is_numpys_generate_state(n_words, dtype):
    for seed in (0, 2**40 + 3, 2**128 + 5):
        ours = rng_from(seed).bit_generator.seed_seq.generate_state(
            n_words, dtype)
        theirs = np.random.SeedSequence(seed).generate_state(n_words, dtype)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    with pytest.raises(ValueError):
        rng_from(1).bit_generator.seed_seq.generate_state(4, np.float64)


def test_rng_from_builds_an_independent_generator_per_call():
    a, b = rng_from(7), rng_from(7)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(5)
    # b starts where a started, whatever a has drawn since
    assert np.array_equal(b.random(5), first)
    assert not np.array_equal(a.random(5), first)


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, 2.0, "7"])
def test_rng_from_raises_what_numpy_raises(seed):
    with pytest.raises(Exception) as theirs:
        np.random.PCG64(seed)
    with pytest.raises(type(theirs.value)):
        rng_from(seed)


@pytest.mark.parametrize("seed", [np.int64(9), np.uint64(2**64 - 1), True,
                                  [1, 2, 3]])
def test_rng_from_seeds_numpys_other_seed_types_as_numpy_does(seed):
    assert rng_from(seed).bit_generator.state == np.random.PCG64(seed).state
