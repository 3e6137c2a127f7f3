"""Seedable, splittable random streams for reproducible simulation.

Every stochastic operation in the package draws from a substream derived
from a master seed plus a tuple of purpose tags, so results do not depend
on the order in which independent pieces of work are executed.
"""

from __future__ import annotations

import zlib

import numpy as np

from ._integral import integral


def substream(seed: int, *tags) -> np.random.Generator:
    """Return an independent generator for (seed, *tags).

    The same (seed, tags) tuple always yields the same stream; distinct
    tag tuples yield statistically independent streams.
    """
    key = tuple(zlib.crc32(t.encode("utf-8")) if isinstance(t, str)
                else integral("substream tag", t, lo=0) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(integral("seed", seed, 0), spawn_key=key))
