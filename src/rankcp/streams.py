"""Deterministic derivation of independent random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator whose key is a hash of ``(seed, *tags)``.  Repetition indices,
pipeline stages, and simulation chunks each get their own tag, so any part of
a run can be reproduced in isolation and the order in which parts run never
changes the numbers.

:func:`streams` serves a batch of seeds with one bit generator: for each
seed it re-keys that generator to ``philox_key(seed, *tags)`` with its counter
at 0 and its buffer empty, the state a new ``stream(seed, *tags)`` starts in,
so it draws exactly the numbers that generator would.  Re-keying through the
bit generator's ``state`` costs a few microseconds; building a new Philox
costs several times that, because numpy first seeds it from the OS.  The
generator it yields is the same object each time, so one is valid only until
the next is yielded: draw from it before advancing the iterator.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Iterator

import numpy as np

from .errors import InvalidInput

# Trajectories per RNG block in chunked simulations.  Fixed constant: changing
# it would remap trajectories to streams and break reproducibility.
CHUNK = 2048

_LOW_64 = 2**64 - 1


def as_seed(seed, name: str = "seed") -> int:
    """``seed`` as a Python int: the one rule for a seed.

    A value that is not an integer (a float, an array, a string) raises
    :class:`InvalidInput` naming ``name``; it is not truncated.  A bool
    reads as 0 or 1.
    """
    try:
        return int(operator.index(seed))  # a bool keys as 0 or 1, not True or False
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {seed}") from None


def philox_key(seed: int, *tags: object) -> int:
    """128-bit Philox key derived from an integer seed and hashable context tags.

    Every seed of the package passes through here, read by :func:`as_seed`.
    """
    seed = as_seed(seed)
    material = repr((seed,) + tags).encode()
    digest = hashlib.blake2b(material, digest_size=16).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, *tags: object) -> np.random.Generator:
    """Independent generator keyed by (seed, *tags)."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *tags)))


def streams(seeds, *tags: object) -> Iterator[np.random.Generator]:
    """For each seed in turn, the generator ``stream(seed, *tags)`` would give.

    One generator, re-keyed per seed: it is valid until the next is yielded.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, buffer empty: a new stream's state
    key = state["state"]["key"]
    for seed in seeds:
        k = philox_key(seed, *tags)
        key[0], key[1] = k & _LOW_64, k >> 64
        bitgen.state = state
        yield gen


def chunk_stream(seed: int, chunk_index: int, *tags: object) -> np.random.Generator:
    """Generator for one simulation chunk; independent across chunk indices."""
    bitgen = np.random.Philox(key=philox_key(seed, *tags)).jumped(chunk_index)
    return np.random.Generator(bitgen)


def child_seed(seed: int, *tags: object) -> int:
    """63-bit integer seed derived from (seed, *tags), for APIs that take ints."""
    return philox_key(seed, *tags) & (2**63 - 1)


def default_workers() -> int:
    """Always 1: simulations run serially.

    Kept only because ``perfbench/workloads.py`` records it in its run
    record; it goes with the next change to the benchmark.
    """
    return 1
