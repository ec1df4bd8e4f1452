"""Visibility model for the simulated crawl.

The paper acknowledges two biases in the Google+ crawl (Section 2.2): users
may keep their circles private (so their link lists are not enumerable) and
users may not declare attributes.  Attribute declaration is already part of
the ground-truth simulator (only ~22% of users declare anything); this module
models circle privacy: a per-user, persistent "hides link lists" flag.

A hidden user's links can still be *discovered from the other endpoint* when
that endpoint is public — exactly the asymmetry a real crawler faces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

import numpy as np

from ..utils.validation import require_probability

Node = Hashable


@dataclass(frozen=True)
class PrivacyModel:
    """Deterministic per-user privacy decisions derived from a seed.

    Using a hash of ``(seed, user)`` instead of a live RNG makes privacy
    decisions stable across days, which matters: a user who hides their
    circles on day 10 also hides them on day 70.  A rate of 0 hides nobody
    and a rate of 1 hides everybody, without hashing.
    """

    hide_links_probability: float = 0.08
    hide_attributes_probability: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        require_probability(self.hide_links_probability, "hide_links_probability")
        require_probability(self.hide_attributes_probability, "hide_attributes_probability")

    def _uniform(self, user: Node, salt: str) -> float:
        payload = f"{self.seed}:{salt}:{user!r}".encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "little") / 2 ** 64

    def _hides(self, user: Node, salt: str, rate: float) -> bool:
        return rate >= 1.0 or (rate > 0.0 and self._uniform(user, salt) < rate)

    def hides_links(self, user: Node) -> bool:
        """Whether ``user`` keeps both circle lists private."""
        return self._hides(user, "links", self.hide_links_probability)

    def hides_attributes(self, user: Node) -> bool:
        """Whether ``user`` hides their declared profile fields from the crawler."""
        return self._hides(user, "attributes", self.hide_attributes_probability)

    def masks(self, users: Sequence[Node]) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean masks over ``users``: ``(hides_links, hides_attributes)``."""
        count = len(users)
        links = np.fromiter((self.hides_links(user) for user in users), bool, count)
        attributes = np.fromiter((self.hides_attributes(user) for user in users), bool, count)
        return links, attributes


#: A privacy model where everything is public (used to measure crawler bias).
FULLY_PUBLIC = PrivacyModel(hide_links_probability=0.0, hide_attributes_probability=0.0)
