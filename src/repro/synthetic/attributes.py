"""Attribute vocabularies for the synthetic Google+ substrate.

The real dataset has four attribute types — School, Major, Employer and City —
whose value popularity is heavily skewed (a handful of employers and cities
account for a large share of the declarations).  The vocabulary here mirrors
that: each type has a configurable number of values with Zipf-distributed
popularity, and the most popular values carry recognisable names (Google,
Computer Science, ...) so the Figure 14 reproduction reads like the paper.

Early Google+ adopters were disproportionately tech-industry users; the
vocabulary supports a "tech tilt" that boosts the probability of tech-related
employers/majors for users joining in the earliest phase, which is what makes
the Employer=Google / Major=Computer Science degree effect of Figure 14
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..utils.rng import RngLike, ensure_rng

#: Named heads of each vocabulary, matching the values the paper highlights.
NAMED_VALUES: Dict[str, List[str]] = {
    "employer": ["Google", "Microsoft", "IBM", "Infosys", "Intel", "Facebook"],
    "major": [
        "Computer Science",
        "Economics",
        "Political Science",
        "Finance",
        "Electrical Engineering",
    ],
    "school": ["UC Berkeley", "Stanford", "MIT", "Tsinghua", "CMU"],
    "city": ["San Francisco", "New York", "London", "Bangalore", "Beijing"],
}

#: Values considered "tech" for the early-adopter tilt.
TECH_VALUES = {"Google", "Microsoft", "Intel", "Facebook", "Computer Science",
               "Electrical Engineering", "San Francisco"}


@dataclass
class AttributeVocabulary:
    """A Zipf-weighted vocabulary of attribute values for one attribute type."""

    attr_type: str
    values: List[str]
    zipf_exponent: float = 1.1
    _weights: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("an attribute vocabulary needs at least one value")
        self._weights = [
            1.0 / (rank ** self.zipf_exponent) for rank in range(1, len(self.values) + 1)
        ]

    def sample(self, rng: RngLike = None, tech_tilt: float = 0.0) -> str:
        """Draw a value; ``tech_tilt`` in [0, 1] boosts tech-related values."""
        generator = ensure_rng(rng)
        if tech_tilt > 0 and generator.random() < tech_tilt:
            tech_candidates = [value for value in self.values if value in TECH_VALUES]
            if tech_candidates:
                return tech_candidates[generator.randrange(len(tech_candidates))]
        total = sum(self._weights)
        threshold = generator.random() * total
        cumulative = 0.0
        for value, weight in zip(self.values, self._weights):
            cumulative += weight
            if cumulative >= threshold:
                return value
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)


def build_vocabulary(
    attr_type: str, num_values: int = 200, zipf_exponent: float = 1.1
) -> AttributeVocabulary:
    """Build a vocabulary with named heads followed by synthetic long-tail values."""
    named = NAMED_VALUES.get(attr_type, [])
    values = list(named)
    index = 0
    while len(values) < num_values:
        values.append(f"{attr_type.title()}_{index:04d}")
        index += 1
    return AttributeVocabulary(
        attr_type=attr_type, values=values[:num_values], zipf_exponent=zipf_exponent
    )


@dataclass
class ProfileModel:
    """Sampler for a new user's declared attributes.

    ``declare_probability`` is the probability that the user declares anything
    at all (~22% on Google+).  A declaring user then declares each type
    independently with ``type_probabilities``; the value is either copied from
    the inviter's profile (homophily — this plants the attribute influence on
    link structure that Sections 4.2 and 5 measure) or drawn from the type's
    vocabulary with an early-adopter tech tilt.
    """

    vocabularies: Dict[str, AttributeVocabulary]
    declare_probability: float = 0.22
    type_probabilities: Dict[str, float] = field(
        default_factory=lambda: {
            "employer": 0.55,
            "school": 0.65,
            "major": 0.50,
            "city": 0.70,
        }
    )
    inviter_copy_probability: float = 0.3

    def sample_profile(
        self,
        rng: RngLike = None,
        inviter_profile: Optional[Dict[str, str]] = None,
        tech_tilt: float = 0.0,
    ) -> Dict[str, str]:
        """Sample the ``{attr_type: value}`` profile of a new user (possibly empty)."""
        generator = ensure_rng(rng)
        if generator.random() >= self.declare_probability:
            return {}
        profile: Dict[str, str] = {}
        for attr_type, vocabulary in self.vocabularies.items():
            if generator.random() >= self.type_probabilities.get(attr_type, 0.5):
                continue
            copied = None
            if (
                inviter_profile
                and attr_type in inviter_profile
                and generator.random() < self.inviter_copy_probability
            ):
                copied = inviter_profile[attr_type]
            profile[attr_type] = (
                copied
                if copied is not None
                else vocabulary.sample(rng=generator, tech_tilt=tech_tilt)
            )
        return profile
