"""Seeded random-number helpers.

Every stochastic component in the library (benchmark generators, platform
builders) accepts either an integer seed or an existing
:class:`random.Random` so experiments are exactly reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Union

RandomLike = Union[int, random.Random, None]


def make_rng(seed: RandomLike = None) -> random.Random:
    """Return a :class:`random.Random` from a seed, an rng, or ``None``.

    Passing an existing ``Random`` returns it unchanged (shared state),
    which lets a driver thread one generator through several components.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def triangular_int(rng: random.Random, low: int, high: int, mode: Optional[int] = None) -> int:
    """Integer draw from a triangular distribution over ``[low, high]``."""
    if low > high:
        raise ValueError(f"empty range [{low}, {high}]")
    if low == high:
        return low
    value = rng.triangular(low, high, mode if mode is not None else (low + high) / 2)
    return max(low, min(high, int(round(value))))
