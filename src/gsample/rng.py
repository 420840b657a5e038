"""Project-wide random number generation.

Every stochastic routine in the package draws from a PCG64 generator
seeded explicitly by the caller, so results are reproducible bit for bit
from (parameters, seed) alone.  The generator name is exported so that
experiment outputs can record it.

`rng_from(seed)` is `Generator(PCG64(seed))` state for state, with one
part compiled: the hash of `numpy.random.SeedSequence(seed)`, which
turns a nonnegative int seed into the four words PCG64 seeds from, runs
in `_kernels.seed_state`.  numpy still runs the PCG64 seeding step on
those words, and every call builds a fresh generator of its own.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import _kernels

# Single PRNG used everywhere; recorded in experiment summaries.
RNG_NAME = "pcg64"


class _Seed(ISeedSequence):
    """`SeedSequence(entropy)` for a nonnegative int entropy, as far as a
    bit generator reads it: its `generate_state`, hashed by the compiled
    kernel.  It cannot spawn."""

    def __init__(self, entropy: int):
        self.entropy = entropy

    def generate_state(self, n_words, dtype=np.uint32):
        wide = np.dtype(dtype) == np.uint64
        if not wide and np.dtype(dtype) != np.uint32:
            raise ValueError("only support uint32 or uint64")
        return _kernels.seed_state(self.entropy, n_words, wide)


def rng_from(seed: int) -> np.random.Generator:
    """Return the project PRNG seeded with `seed`: a fresh generator in
    the state of `Generator(PCG64(seed))`.

    A seed that is not a nonnegative int goes to numpy as it is, which
    seeds it or raises as it always has.
    """
    if type(seed) is int and seed >= 0:
        return Generator(PCG64(_Seed(seed)))
    return Generator(PCG64(seed))


def child_seed(*parts) -> int:
    """Derive a stable 64-bit seed from a tuple of labels.

    Uses blake2b over the stringified labels, so the mapping is stable
    across runs, platforms and Python versions (unlike built-in hash()).
    Adding a new label combination never perturbs existing ones.
    """
    key = "\x1f".join(map(str, parts)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
