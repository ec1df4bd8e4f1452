"""Random-number-generator plumbing.

Every stochastic component in the library accepts either a seed, an existing
``random.Random`` instance, or ``None``.  Centralising the coercion here keeps
experiments reproducible: a single integer seed at the top of a benchmark
deterministically derives the generators used by each sub-component.
"""

from __future__ import annotations

import random
from typing import Union

RngLike = Union[int, random.Random, None]


def ensure_rng(rng: RngLike = None) -> random.Random:
    """Coerce ``rng`` into a ``random.Random`` instance.

    ``None`` yields a generator seeded from system entropy, an integer seeds a
    fresh generator, and an existing generator is returned unchanged.
    """
    if rng is None:
        # repro: lint-ignore[R001] -- the None branch is the documented,
        # caller-explicit opt-in to system entropy; every library default
        # passes a named seed (DEFAULT_FIGURE_SEED, DEFAULT_LIKELIHOOD_SEED)
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, int):
        return random.Random(rng)
    raise TypeError(f"cannot interpret {rng!r} as a random number generator")
