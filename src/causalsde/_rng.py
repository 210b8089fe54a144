"""Counter-based random streams for reproducible Monte Carlo.

Every stream is a Philox generator whose 256-bit counter block encodes the
stream's identity, so any path (or block of paths) can be regenerated in
isolation and results never depend on how paths are split into chunks.

``STREAM_VERSION`` numbers the layout of what a path draws from its stream.
Version 2: the initial state, then ``rank`` normals per step, then one
Poisson total of all jump atoms over the horizon with each event's step
and atom.  A change to that layout, and so to the sampled values, bumps it.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

import numpy as np

STREAM_VERSION = 2


@functools.lru_cache(maxsize=64)
def _philox_key(seed: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(int(seed))
    k = ss.generate_state(2, np.uint64)
    return int(k[0]), int(k[1])


def _philox(seed: int, counter: list[int]) -> np.random.Philox:
    # a key tuple mixing a word of 2**63 or more with a smaller one would go
    # through float64 and lose low bits, so the words go in as a uint64 array
    return np.random.Philox(counter=counter, key=np.array(_philox_key(seed), dtype=np.uint64))


def path_stream(seed: int, path_index: int) -> np.random.Generator:
    """Independent stream owned by one simulated path.

    The path index is placed in the Philox counter block, so streams for
    different paths of the same seed never overlap and each can be
    reconstructed without generating the others.
    """
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    return np.random.Generator(_philox(seed, [0, 0, int(path_index), 0]))


def path_streams(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield, per index i, a generator drawing what ``path_stream(seed, i)`` draws:
    one Philox, built as there and re-positioned by writing its state (counter
    ``[0, 0, i, 0]``, empty buffer), valid until the next one is requested.
    """
    bg = _philox(seed, [0, 0, 0, 0])
    g, state = np.random.Generator(bg), bg.state
    for index in indices:
        if index < 0:
            raise ValueError("path_index must be nonnegative")
        state["state"]["counter"] = [0, 0, int(index), 0]
        bg.state = state
        yield g


def block_stream(seed: int, block_index: int) -> np.random.Generator:
    """Stream owned by a fixed-size block of paths (bulk samplers).

    Lives in a counter region disjoint from :func:`path_stream` (high word 1).
    """
    return np.random.Generator(_philox(seed, [0, 0, int(block_index), 1]))


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent child seed, e.g. for a second ensemble."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(t) for t in tags))
    return int(ss.generate_state(1, np.uint64)[0])
