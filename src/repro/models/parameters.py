"""Parameter containers for the SAN generative model and the Zhel baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..utils.validation import require_non_negative, require_positive, require_probability


@dataclass(frozen=True)
class FlashCrowd:
    """A burst of extra arrivals at one step, breaking the steady schedule.

    ``arrivals`` nodes join at ``step`` *on top of* the configured
    ``arrivals_per_step`` — the generative-model analogue of a public-launch
    surge (the Google+ Phase III jump).
    """

    step: int
    arrivals: int

    def __post_init__(self) -> None:
        require_positive(self.step, "step")
        require_positive(self.arrivals, "arrivals")


@dataclass(frozen=True)
class SybilWave:
    """A wave of Sybil identities injected at one step (Section 6.3 attack).

    Each of the ``num_sybils`` identities creates ``attack_edges_per_sybil``
    directed links to uniformly chosen honest nodes, and the wave wires
    ``intra_links`` mutual links among its own members.  Sybils declare no
    attributes and never enter the wake process — they exist to stress the
    attack-edge cut the SybilRank-style defense relies on.
    """

    step: int
    num_sybils: int
    attack_edges_per_sybil: int = 1
    intra_links: int = 0

    def __post_init__(self) -> None:
        require_positive(self.step, "step")
        require_positive(self.num_sybils, "num_sybils")
        require_non_negative(self.attack_edges_per_sybil, "attack_edges_per_sybil")
        require_non_negative(self.intra_links, "intra_links")


@dataclass
class AttachmentParameters:
    """Parameters of the LAPA attachment step of Algorithm 1.

    The weight of a link ``u -> v`` is ``(d_i(v) + smoothing) (1 + beta
    a(u, v))``: linear in the target's social in-degree ``d_i``, as in the
    paper's model, plus ``beta`` times the (optionally type-weighted, see
    ``type_weights``) count ``a(u, v)`` of shared attributes.  ``beta = 0`` is
    classical preferential attachment.  ``smoothing`` keeps zero-in-degree
    nodes reachable (the paper leaves this detail open).  The Figure 15
    sweep scores other in-degree exponents through
    :class:`~repro.models.fast_likelihood.AttachmentModelSpec`.
    """

    beta: float = 0.0
    smoothing: float = 1.0
    type_weights: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        require_non_negative(self.beta, "beta")
        require_non_negative(self.smoothing, "smoothing")


@dataclass
class LifetimeParameters:
    """Truncated-normal lifetime and degree-dependent sleep-time parameters.

    A node's lifetime ``l`` is drawn from ``Normal(mu, sigma)`` truncated to
    ``l >= 0`` and counts simulated time steps during which the node may wake
    up and add links.  Sleep times are exponential with mean
    ``mean_sleep / out_degree`` (the model only depends on the mean, per the
    paper's Section 5.3).
    """

    mu: float = 3.0
    sigma: float = 2.5
    mean_sleep: float = 2.0

    def __post_init__(self) -> None:
        require_positive(self.sigma, "sigma")
        require_positive(self.mean_sleep, "mean_sleep")


@dataclass
class SANModelParameters:
    """Full parameter set of the Algorithm 1 generative model.

    Attributes
    ----------
    steps:
        Number of simulated time steps ``T``; with ``arrivals_per_step = 1``
        this equals the number of social nodes added.
    arrivals_per_step:
        The node arrival function ``N(t)``; constant by default as in the paper.
    attribute_mu, attribute_sigma:
        Lognormal parameters of the attribute degree of new social nodes.
    new_attribute_probability:
        Probability ``p`` that an attribute link goes to a brand-new attribute
        node instead of an existing one chosen preferentially by social degree.
    attachment:
        LAPA parameters for the first outgoing link of a new node.
    lifetime:
        Lifetime / sleep-time parameters controlling subsequent outgoing links.
    focal_weight:
        Weight ``fc`` of attribute neighbors relative to social neighbors in
        the RR-SAN triangle-closing step; ``0`` disables focal closure
        (reducing RR-SAN to RR).
    reciprocation_probability:
        Probability that the target of a new outgoing link immediately creates
        the reverse link; keeps the generated SAN's reciprocity in the range
        observed for Google+ without affecting the degree-distribution theory.
    seed_social_nodes, seed_attribute_nodes:
        Size of the complete seed SAN used for initialization.
    use_lapa:
        Ablation switch: ``False`` replaces LAPA with classical PA (Figure 18a).
    use_focal_closure:
        Ablation switch: ``False`` replaces RR-SAN with classical RR (Figure 18b).
    attribute_churn_rate:
        Per-step probability of one churn event: a uniformly chosen existing
        node drops one of its attribute links (a user changing employers) and
        immediately re-links via the standard new-vs-existing attribute rule.
        ``0`` (the default) reproduces the paper's append-only growth exactly.
    flash_crowds:
        Extra arrival bursts at fixed steps (see :class:`FlashCrowd`).
    sybil_waves:
        Sybil-identity injections at fixed steps (see :class:`SybilWave`).
    """

    steps: int = 2000
    arrivals_per_step: int = 1
    attribute_mu: float = 1.0
    attribute_sigma: float = 0.8
    new_attribute_probability: float = 0.25
    attachment: AttachmentParameters = field(
        default_factory=lambda: AttachmentParameters(beta=200.0)
    )
    lifetime: LifetimeParameters = field(default_factory=LifetimeParameters)
    focal_weight: float = 1.0
    reciprocation_probability: float = 0.4
    seed_social_nodes: int = 5
    seed_attribute_nodes: int = 5
    use_lapa: bool = True
    use_focal_closure: bool = True
    attribute_churn_rate: float = 0.0
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    sybil_waves: Tuple[SybilWave, ...] = ()

    def __post_init__(self) -> None:
        require_positive(self.steps, "steps")
        require_positive(self.arrivals_per_step, "arrivals_per_step")
        require_positive(self.attribute_sigma, "attribute_sigma")
        require_probability(self.new_attribute_probability, "new_attribute_probability")
        require_non_negative(self.focal_weight, "focal_weight")
        require_probability(self.reciprocation_probability, "reciprocation_probability")
        require_positive(self.seed_social_nodes, "seed_social_nodes")
        require_positive(self.seed_attribute_nodes, "seed_attribute_nodes")
        require_probability(self.attribute_churn_rate, "attribute_churn_rate")
        self.flash_crowds = tuple(self.flash_crowds)
        self.sybil_waves = tuple(self.sybil_waves)

    def total_arrivals(self) -> int:
        """Total non-seed nodes the model will create, regimes included."""
        extra = sum(crowd.arrivals for crowd in self.flash_crowds)
        extra += sum(wave.num_sybils for wave in self.sybil_waves)
        return self.steps * self.arrivals_per_step + extra


@dataclass
class ZhelModelParameters:
    """Parameters of the directed extension of the Zheleva et al. baseline.

    The original model co-evolves an undirected social network and group
    affiliations where the *social structure drives group membership* (the
    converse of our model).  Links form via preferential attachment and
    triangle closing without any attribute influence.
    """

    steps: int = 2000
    arrivals_per_step: int = 1
    links_per_wakeup: int = 1
    triangle_probability: float = 0.5
    mean_groups_per_node: float = 2.0
    new_group_probability: float = 0.25
    copy_friend_group_probability: float = 0.5
    reciprocation_probability: float = 0.4
    lifetime: LifetimeParameters = field(default_factory=LifetimeParameters)
    #: Tail exponent of the power-law out-degree produced by the exponential
    #: lifetime + degree-proportional wake rate (prior models' setting); the
    #: exponential lifetime mean is derived from it as mean_sleep / (exp - 1).
    lifetime_tail_exponent: float = 2.5
    seed_social_nodes: int = 5
    seed_attribute_nodes: int = 5

    def __post_init__(self) -> None:
        require_positive(self.steps, "steps")
        require_positive(self.arrivals_per_step, "arrivals_per_step")
        require_probability(self.triangle_probability, "triangle_probability")
        require_positive(self.mean_groups_per_node, "mean_groups_per_node")
        require_probability(self.new_group_probability, "new_group_probability")
        require_probability(
            self.copy_friend_group_probability, "copy_friend_group_probability"
        )
        require_probability(self.reciprocation_probability, "reciprocation_probability")
        if self.lifetime_tail_exponent <= 1.0:
            raise ValueError("lifetime_tail_exponent must be > 1")
