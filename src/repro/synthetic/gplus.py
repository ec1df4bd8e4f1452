"""Synthetic Google+ ground-truth evolution.

The paper's measurements run on 79 daily crawls of the real Google+ network.
That dataset is not redistributable here, so this module provides the closest
synthetic equivalent: a day-by-day simulator of a Google+-like social-attribute
network with

* the three-phase launch timeline (invitation bootstrap, stabilised
  invitation-only growth, public release surge) driving node arrivals,
* invitation links from new users to existing inviters,
* per-user lognormal outgoing-link budgets spread over the days after joining
  (yielding lognormal degree distributions),
* link-target selection mixing triadic closure, focal (shared-attribute)
  closure, and attribute-boosted preferential attachment,
* reciprocation whose probability declines across phases and is boosted when
  the endpoints share attributes (the Figure 13a signal),
* profile declaration for ~22% of users across the four Google+ attribute
  types, with inviter homophily and an early-adopter tech tilt (the Figure 14
  signal).

The simulator emits a :class:`GroundTruthEvolution`: a day-stamped event log
kept as four int columns (day, kind, first, second) plus the attribute table
its ids index.  The ground truth "as of day d", a whole snapshot sequence, an
arrival-history window, join days and profiles are all cut from those
columns with array operations; nothing replays the log into a mutable SAN.
The crawler substrate consumes this object to produce the crawled snapshots
every measurement bench runs on.  While it runs, the simulator keeps the
network so far as plain sets (per-user successors, predecessors and
attributes, per-attribute members); its target pickers walk and probe
those sets directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.bipartite import AttributeInfo
from ..graph.builders import attribute_node_id
from ..graph.frozen import FrozenSAN, pack_pairs
from ..metrics.evolution import PhaseBoundaries
from ..models.history import (
    KIND_ATTRIBUTE,
    KIND_ATTRIBUTE_REMOVE,
    KIND_NODE,
    KIND_SOCIAL,
    HistoryColumns,
)
from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import require_non_negative, require_positive, require_probability
from .arrival import three_phase_schedule
from .attributes import ProfileModel, build_vocabulary

Node = Hashable


@dataclass(frozen=True)
class SybilWaveDay:
    """A Sybil infiltration wave hitting the simulated network on one day.

    Each of the ``num_sybils`` fake identities links to
    ``attack_edges_per_sybil`` uniformly chosen honest users (the attack edges
    whose scarcity the Section 6.3 defense exploits) and the wave wires
    ``intra_links`` mutual links among its own members.  Sybils declare no
    profile attributes and schedule no organic link budgets.
    """

    day: int
    num_sybils: int
    attack_edges_per_sybil: int = 2
    intra_links: int = 0

    def __post_init__(self) -> None:
        require_positive(self.day, "day")
        require_positive(self.num_sybils, "num_sybils")
        require_non_negative(self.attack_edges_per_sybil, "attack_edges_per_sybil")
        require_non_negative(self.intra_links, "intra_links")


@dataclass(frozen=True)
class FlashCrowdDay:
    """Extra arrivals on one day, on top of the three-phase schedule."""

    day: int
    arrivals: int

    def __post_init__(self) -> None:
        require_positive(self.day, "day")
        require_positive(self.arrivals, "arrivals")


@dataclass
class GroundTruthEvolution:
    """Day-stamped event log of a simulated Google+-like network, as int columns.

    Event ``i`` happened on day ``day[i]`` (non-decreasing) and has kind
    code ``kind[i]`` (a position in :data:`~repro.models.history.EVENT_KINDS`).
    Users are numbered ``0 .. n - 1`` in join order.  ``first[i]`` is a
    user; ``second[i]`` is the target user of a social link, the attribute
    of an attribute link or removal — an id into ``attribute_labels`` and
    ``attribute_info``, numbered in order of first use — or -1 for a join.
    Every view below is cut from these columns with array operations; none
    replays the log into a mutable SAN.
    """

    day: np.ndarray
    kind: np.ndarray
    first: np.ndarray
    second: np.ndarray
    attribute_labels: List[str]
    attribute_info: List[AttributeInfo]
    num_days: int
    phases: PhaseBoundaries = field(default_factory=PhaseBoundaries)
    #: User ids injected by Sybil waves (empty without the adversarial regime).
    sybil: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: The final ground truth (built on first use unless the store held it).
    _final: Optional[FrozenSAN] = field(default=None, repr=False, compare=False)
    _successor: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def num_events(self) -> int:
        return int(self.kind.size)

    @property
    def join_day(self) -> Dict[int, int]:
        """``{user: day}`` of every join."""
        joins = self.kind == KIND_NODE
        return dict(zip(self.first[joins].tolist(), self.day[joins].tolist()))

    def _prefix(self, day: int) -> int:
        """Number of events on days ``<= day``."""
        return int(np.searchsorted(self.day, day, side="right"))

    def _live(self, prefix: int, add_kind: int) -> np.ndarray:
        """Positions of the ``add_kind`` links the first ``prefix`` events leave alive.

        A link is alive after a prefix when no later event of the prefix
        touches the same pair: the removal that would follow it.
        """
        if self._successor is None:
            self._successor = _next_same_link(self.kind, self.first, self.second)
        adds = np.flatnonzero(self.kind[:prefix] == add_kind)
        return adds[self._successor[adds] >= prefix]

    def _node_count(self, prefix: int) -> int:
        return int(np.count_nonzero(self.kind[:prefix] == KIND_NODE))

    def _attribute_count(self, prefix: int) -> int:
        linked = self.second[:prefix][self.kind[:prefix] == KIND_ATTRIBUTE]
        return int(linked.max()) + 1 if linked.size else 0

    def _state_at(self, prefix: int) -> FrozenSAN:
        """The ground truth after the first ``prefix`` events."""
        edges = self._live(prefix, KIND_SOCIAL)
        links = self._live(prefix, KIND_ATTRIBUTE)
        num_attributes = self._attribute_count(prefix)
        return FrozenSAN.from_edge_arrays(
            list(range(self._node_count(prefix))),
            self.first[edges],
            self.second[edges],
            self.attribute_labels[:num_attributes],
            self.attribute_info[:num_attributes],
            self.first[links],
            self.second[links],
        )

    def final_san(self) -> FrozenSAN:
        """The ground truth at the end of the log (every attribute node kept)."""
        if self._final is None:
            self._final = self._state_at(self.num_events)
        return self._final

    def frozen_snapshots(self, days: Sequence[int]) -> List[Tuple[int, FrozenSAN]]:
        """The ground truth at the end of each requested day in ``[1, num_days]``.

        Each day's state is the log prefix ``np.searchsorted`` cuts at it:
        the users who joined by then, the links alive after the prefix, and
        the attribute nodes used by then (including ones churn left without
        members), built straight into a :class:`FrozenSAN`.
        """
        wanted = sorted({day for day in days if 1 <= day <= self.num_days})
        return [(day, self._state_at(self._prefix(day))) for day in wanted]

    def arrival_history(
        self, start_day: int = 1, end_day: Optional[int] = None
    ) -> HistoryColumns:
        """Arrival history covering days ``[start_day, end_day]``, as a window of the log.

        The initial state is the ground truth at the end of ``start_day - 1``;
        the events of the later days (up to ``end_day``) are the window's
        columns.  Users and attributes keep their ids.  Used by the Figure 15
        likelihood analysis.
        """
        if end_day is None:
            end_day = self.num_days
        start = self._prefix(start_day - 1)
        end = max(start, self._prefix(end_day))
        edges = self._live(start, KIND_SOCIAL)
        links = self._live(start, KIND_ATTRIBUTE)
        return HistoryColumns(
            num_initial_nodes=self._node_count(start),
            num_initial_attributes=self._attribute_count(start),
            initial_src=self.first[edges],
            initial_dst=self.second[edges],
            initial_member=self.first[links],
            initial_attribute=self.second[links],
            kind=self.kind[start:end],
            first=self.first[start:end],
            second=self.second[start:end],
        )

    def new_social_links_between(
        self, after_day: int, up_to_day: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` of the social links created after ``after_day``, by ``up_to_day``."""
        start = self._prefix(after_day)
        end = max(start, self._prefix(up_to_day))
        links = start + np.flatnonzero(self.kind[start:end] == KIND_SOCIAL)
        return self.first[links], self.second[links]


def _next_same_link(kind: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """For every event, the position of the next event on the same link (or the log's length).

    Social links and removals share one pair space, attribute links and
    removals another; joins have no successor.
    """
    count = int(kind.size)
    successor = np.full(count, count, dtype=np.int64)
    events = np.flatnonzero(kind != KIND_NODE)
    if events.size < 2:
        return successor
    family = np.isin(kind[events], (KIND_ATTRIBUTE, KIND_ATTRIBUTE_REMOVE))
    # One key per (family, head, tail) link; the stable sort keeps each
    # link's events in log order.
    links, _ = pack_pairs(pack_pairs(family, first[events])[0], second[events])
    order = np.argsort(links, kind="stable")
    ordered = events[order]
    links = links[order]
    same = links[1:] == links[:-1]
    successor[ordered[:-1][same]] = ordered[1:][same]
    return successor


@dataclass
class GooglePlusConfig:
    """Configuration of the synthetic Google+ simulator.

    The defaults target a few thousand users — large enough for every metric's
    qualitative shape to be visible, small enough for the full benchmark suite
    to run on a laptop.  ``total_users`` and ``num_days`` scale the workload.
    """

    total_users: int = 4000
    num_days: int = 98
    phases: PhaseBoundaries = field(default_factory=PhaseBoundaries)

    # Outgoing-link budgets (lognormal) and their spread over time.
    degree_mu: float = 1.6
    degree_sigma: float = 1.0
    tech_degree_boost: float = 1.8
    link_spread_days: float = 25.0

    # Link-target selection mix.
    triadic_probability: float = 0.50
    focal_probability: float = 0.15
    #: Probability that a non-closure link from a user with declared attributes
    #: targets a member of one of their attribute communities (the approximate
    #: LAPA behaviour of Section 7) instead of plain preferential attachment.
    attachment_lapa_share: float = 0.35
    #: Relative propensity of each attribute type to drive focal link creation;
    #: Employer outweighs City, which is what makes employers form stronger
    #: communities (Figure 13b) and LAPA beat PA (Figure 15).
    focal_type_weights: Dict[str, float] = field(
        default_factory=lambda: {"employer": 3.5, "school": 2.0, "major": 1.0, "city": 0.3}
    )

    # Per-link reciprocation probabilities per phase (note: a per-link rate r
    # yields a global link reciprocity of 2r / (1 + r), so ~0.3 per link gives
    # the ~0.45 reciprocity Google+ shows early on), plus the shared-attribute
    # boost applied to delayed reciprocation.
    reciprocation_phase1: float = 0.28
    reciprocation_phase2: float = 0.18
    reciprocation_phase3: float = 0.10
    shared_attribute_reciprocation_boost: float = 2.5
    # Links that were not reciprocated immediately may still be reciprocated
    # later (this is what the Figure 13a fine-grained reciprocity measures).
    delayed_reciprocation_probability: float = 0.10
    delayed_reciprocation_mean_days: float = 15.0

    # Invitations & profiles.
    invitation_probability_phase3: float = 0.55
    declare_probability: float = 0.22
    inviter_copy_probability: float = 0.30
    #: Distinct values per attribute type.  Cities are few (huge, loosely knit
    #: communities) while employers are many (small, tightly knit ones) — this
    #: asymmetry is what reproduces the Figure 13b ordering.
    vocabulary_sizes: Dict[str, int] = field(
        default_factory=lambda: {"employer": 90, "school": 60, "major": 30, "city": 22}
    )
    tech_tilt_phase1: float = 0.45
    tech_tilt_phase2: float = 0.15
    tech_tilt_phase3: float = 0.05

    # Scenario regimes (all off by default — the paper's observed workload).
    #: Expected attribute-churn events per day: a uniform profiled user drops
    #: one declared attribute and redeclares a different value of the same
    #: type (users changing employers).  May exceed 1.
    attribute_churn_rate: float = 0.0
    #: Arrival bursts breaking the three-phase schedule.
    flash_crowds: Tuple[FlashCrowdDay, ...] = ()
    #: Sybil infiltration waves (Section 6.3 attack edges).
    sybil_waves: Tuple[SybilWaveDay, ...] = ()

    def __post_init__(self) -> None:
        require_probability(self.triadic_probability, "triadic_probability")
        require_probability(self.focal_probability, "focal_probability")
        if self.triadic_probability + self.focal_probability > 1.0:
            raise ValueError("triadic_probability + focal_probability must be <= 1")
        require_probability(self.declare_probability, "declare_probability")
        for name in (
            "reciprocation_phase1",
            "reciprocation_phase2",
            "reciprocation_phase3",
            "invitation_probability_phase3",
        ):
            require_probability(getattr(self, name), name)
        require_non_negative(self.attribute_churn_rate, "attribute_churn_rate")
        self.flash_crowds = tuple(self.flash_crowds)
        self.sybil_waves = tuple(self.sybil_waves)
        for crowd in self.flash_crowds:
            if crowd.day > self.num_days:
                raise ValueError(f"flash crowd day {crowd.day} exceeds num_days")
        for wave in self.sybil_waves:
            if wave.day > self.num_days:
                raise ValueError(f"sybil wave day {wave.day} exceeds num_days")


class _LiveNetwork:
    """The simulated network so far, as plain sets in lists.

    Users are ids ``0 .. n - 1`` in join order and attributes are ids in
    order of first use, so ``successors[u]``, ``predecessors[u]`` and
    ``attributes[u]`` (attribute ids) hold user ``u``'s state and
    ``members[a]`` attribute ``a``'s users; ``labels`` and ``info`` are the
    event log's attribute table.  The pickers iterate these sets, so their
    iteration order is part of every draw.  It is fixed by each set's
    ``add``/``discard`` history alone, which makes the simulation a pure
    function of its seed.
    """

    __slots__ = ("successors", "predecessors", "attributes", "members", "labels", "info")

    def __init__(self, labels: List[str], info: List[AttributeInfo]) -> None:
        self.successors: List[Set[int]] = []
        self.predecessors: List[Set[int]] = []
        self.attributes: List[Set[int]] = []
        self.members: List[Set[int]] = []
        self.labels = labels
        self.info = info


class GooglePlusSimulator:
    """Simulate the growth of a Google+-like SAN, day by day."""

    def __init__(self, config: Optional[GooglePlusConfig] = None, rng: RngLike = None) -> None:
        self.config = config if config is not None else GooglePlusConfig()
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> GroundTruthEvolution:
        """Run the full simulation and return its event log as columns."""
        config = self.config
        rng = self._rng
        schedule = three_phase_schedule(
            total_users=config.total_users,
            num_days=config.num_days,
            phases=config.phases,
        )
        vocabularies = {
            attr_type: build_vocabulary(attr_type, num_values=size)
            for attr_type, size in config.vocabulary_sizes.items()
        }
        profile_model = ProfileModel(
            vocabularies=vocabularies,
            declare_probability=config.declare_probability,
            inviter_copy_probability=config.inviter_copy_probability,
        )

        # The event log's columns, and the attribute table its ids index.
        days: List[int] = []
        kinds: List[int] = []
        firsts: List[int] = []
        seconds: List[int] = []
        attribute_ids: Dict[str, int] = {}
        attribute_labels: List[str] = []
        attribute_info: List[AttributeInfo] = []
        profiles: Dict[Node, Dict[str, str]] = {}
        sybil_nodes: List[Node] = []
        live = _LiveNetwork(attribute_labels, attribute_info)
        successors, predecessors = live.successors, live.predecessors
        attributes_of, members = live.attributes, live.members
        next_user_id = 0
        # Per-day buckets of scheduled outgoing-link events (source node ids)
        # and of delayed reciprocation events (explicit directed pairs).
        pending_links: List[List[Node]] = [[] for _ in range(config.num_days + 2)]
        pending_reciprocations: List[List[Tuple[Node, Node]]] = [
            [] for _ in range(config.num_days + 2)
        ]
        in_degree_pool: List[Node] = []  # one entry per incoming link (for PA)
        all_users: List[Node] = []
        profiled_users: List[Node] = []  # users with a non-empty profile (churn pool)
        flash_extra: Dict[int, int] = {}
        for crowd in config.flash_crowds:
            flash_extra[crowd.day] = flash_extra.get(crowd.day, 0) + crowd.arrivals
        waves_by_day: Dict[int, List[SybilWaveDay]] = {}
        for wave in config.sybil_waves:
            waves_by_day.setdefault(wave.day, []).append(wave)

        def emit(day: int, kind: int, first: Node, second: int = -1) -> None:
            days.append(day)
            kinds.append(kind)
            firsts.append(first)
            seconds.append(second)

        def join(day: int, user: Node) -> None:
            emit(day, KIND_NODE, user)
            successors.append(set())
            predecessors.append(set())
            attributes_of.append(set())

        def link_attribute(day: int, user: Node, attr_type: str, value: str) -> None:
            label = attribute_node_id(attr_type, value)
            attribute = attribute_ids.get(label)
            if attribute is None:
                attribute = attribute_ids[label] = len(attribute_labels)
                attribute_labels.append(label)
                attribute_info.append(AttributeInfo(attr_type=attr_type, value=value))
                members.append(set())
            emit(day, KIND_ATTRIBUTE, user, attribute)
            attributes_of[user].add(attribute)
            members[attribute].add(user)

        sybil_users: Set[Node] = set()

        def add_social_link(day: int, source: Node, target: Node) -> bool:
            out = successors[source]
            if source == target or target in out:
                return False
            emit(day, KIND_SOCIAL, source, target)
            out.add(target)
            predecessors[target].add(source)
            # Sybil targets never enter the preferential-attachment pool:
            # intra-wave links must not make fake identities attractive to
            # honest users (only triadic closure can organically reach them).
            if target not in sybil_users:
                in_degree_pool.append(target)
            return True

        def maybe_reciprocate(day: int, source: Node, target: Node, probability: float) -> None:
            """Immediate reciprocation, or a delayed one scheduled for later."""
            if rng.random() < min(0.95, probability):
                add_social_link(day, target, source)
                return
            delayed = config.delayed_reciprocation_probability
            if not attributes_of[source].isdisjoint(attributes_of[target]):
                delayed *= config.shared_attribute_reciprocation_boost
            if rng.random() < min(0.9, delayed):
                offset = int(rng.expovariate(1.0 / config.delayed_reciprocation_mean_days)) + 1
                future = day + offset
                if future <= config.num_days:
                    pending_reciprocations[future].append((target, source))

        for day in range(1, config.num_days + 1):
            phase = config.phases.phase_of(day)
            tech_tilt = self._tech_tilt(phase)
            reciprocation = self._reciprocation(day, rng)

            # ---------------------- new user arrivals ----------------------
            for _ in range(schedule.arrivals_on(day) + flash_extra.get(day, 0)):
                user = next_user_id
                next_user_id += 1
                join(day, user)

                inviter = self._pick_inviter(all_users, in_degree_pool, phase, rng)
                inviter_profile = profiles.get(inviter) if inviter is not None else None
                profile = profile_model.sample_profile(
                    rng=rng, inviter_profile=inviter_profile, tech_tilt=tech_tilt
                )
                profiles[user] = profile
                if profile:
                    profiled_users.append(user)
                for attr_type, value in profile.items():
                    link_attribute(day, user, attr_type, value)

                all_users.append(user)

                if inviter is not None and add_social_link(day, user, inviter):
                    maybe_reciprocate(day, user, inviter, reciprocation * 1.2)

                # Schedule this user's future outgoing links.
                budget = self._sample_link_budget(profile, rng)
                for _ in range(budget):
                    offset = int(rng.expovariate(1.0 / config.link_spread_days)) + 1
                    target_day = day + offset
                    if target_day <= config.num_days:
                        pending_links[target_day].append(user)

            # ---------------------- Sybil infiltration waves ----------------------
            # Sybils stay out of all_users (never inviters, PA or focal
            # targets) and schedule no link budgets; only their attack edges
            # (and intra-wave links) touch the honest region.
            for wave in waves_by_day.get(day, ()):
                wave_members: List[Node] = []
                for _ in range(wave.num_sybils):
                    sybil = next_user_id
                    next_user_id += 1
                    profiles[sybil] = {}
                    sybil_nodes.append(sybil)
                    sybil_users.add(sybil)
                    wave_members.append(sybil)
                    join(day, sybil)
                    for _ in range(wave.attack_edges_per_sybil):
                        if not all_users:
                            break
                        victim = all_users[rng.randrange(len(all_users))]
                        add_social_link(day, sybil, victim)
                if len(wave_members) >= 2:
                    for _ in range(wave.intra_links):
                        first = wave_members[rng.randrange(len(wave_members))]
                        second = wave_members[rng.randrange(len(wave_members))]
                        if first == second:
                            continue
                        add_social_link(day, first, second)
                        add_social_link(day, second, first)

            # ---------------------- scheduled link creation ----------------------
            for source in pending_links[day]:
                target = self._pick_link_target(live, source, in_degree_pool, all_users, rng)
                if target is None:
                    continue
                if add_social_link(day, source, target):
                    maybe_reciprocate(day, source, target, reciprocation)

            # ---------------------- delayed reciprocations ----------------------
            for source, target in pending_reciprocations[day]:
                add_social_link(day, source, target)

            # ---------------------- attribute churn ----------------------
            # A profiled user drops one declared attribute and redeclares a
            # different value of the same type (changing employers); the
            # event log records the removal so every snapshot view agrees.
            if config.attribute_churn_rate > 0.0:
                churn_events = int(config.attribute_churn_rate)
                fraction = config.attribute_churn_rate - churn_events
                if fraction > 0.0 and rng.random() < fraction:
                    churn_events += 1
                for _ in range(churn_events):
                    if not profiled_users:
                        break
                    user = profiled_users[rng.randrange(len(profiled_users))]
                    profile = profiles[user]
                    attr_types = list(profile)
                    attr_type = attr_types[rng.randrange(len(attr_types))]
                    old_value = profile[attr_type]
                    attribute = attribute_ids[attribute_node_id(attr_type, old_value)]
                    emit(day, KIND_ATTRIBUTE_REMOVE, user, attribute)
                    attributes_of[user].discard(attribute)
                    members[attribute].discard(user)
                    vocabulary = vocabularies[attr_type]
                    new_value = old_value
                    for _attempt in range(10):
                        new_value = vocabulary.sample(rng=rng)
                        if new_value != old_value:
                            break
                    if new_value == old_value:
                        del profile[attr_type]
                        if not profile:
                            profiled_users.remove(user)
                        continue
                    profile[attr_type] = new_value
                    link_attribute(day, user, attr_type, new_value)

        return GroundTruthEvolution(
            day=np.asarray(days, dtype=np.int64),
            kind=np.asarray(kinds, dtype=np.int64),
            first=np.asarray(firsts, dtype=np.int64),
            second=np.asarray(seconds, dtype=np.int64),
            attribute_labels=attribute_labels,
            attribute_info=attribute_info,
            num_days=config.num_days,
            phases=config.phases,
            sybil=np.asarray(sybil_nodes, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tech_tilt(self, phase: int) -> float:
        config = self.config
        if phase == 1:
            return config.tech_tilt_phase1
        if phase == 2:
            return config.tech_tilt_phase2
        return config.tech_tilt_phase3

    def _reciprocation(self, day: int, rng) -> float:
        """Phase-dependent reciprocation probability with small daily noise."""
        config = self.config
        phase = config.phases.phase_of(day)
        if phase == 1:
            base = config.reciprocation_phase1
        elif phase == 2:
            # Linear decline across phase II.
            span = max(config.phases.phase_two_end - config.phases.phase_one_end, 1)
            progress = (day - config.phases.phase_one_end) / span
            base = config.reciprocation_phase1 + progress * (
                config.reciprocation_phase2 - config.reciprocation_phase1
            )
        else:
            base = config.reciprocation_phase3
        return max(0.05, base + rng.uniform(-0.02, 0.02))

    def _pick_inviter(
        self, all_users: List[Node], in_degree_pool: List[Node], phase: int, rng
    ) -> Optional[Node]:
        """Choose an inviter ∝ (in-degree + 1); Phase III users may join uninvited."""
        if not all_users:
            return None
        if phase == 3 and rng.random() > self.config.invitation_probability_phase3:
            return None
        total = len(in_degree_pool) + len(all_users)
        if in_degree_pool and rng.random() * total < len(in_degree_pool):
            return in_degree_pool[rng.randrange(len(in_degree_pool))]
        return all_users[rng.randrange(len(all_users))]

    def _sample_link_budget(self, profile: Dict[str, str], rng) -> int:
        """Lognormal outgoing-link budget, boosted for tech-profile users."""
        config = self.config
        draw = rng.lognormvariate(config.degree_mu, config.degree_sigma)
        if profile.get("employer") in ("Google", "Microsoft", "Intel", "Facebook") or (
            profile.get("major") == "Computer Science"
        ):
            draw *= config.tech_degree_boost
        return max(0, int(round(draw)))

    def _pick_link_target(
        self,
        live: _LiveNetwork,
        source: int,
        in_degree_pool: List[Node],
        all_users: List[Node],
        rng,
    ) -> Optional[Node]:
        """Target selection: triadic closure / focal closure / attribute-boosted PA."""
        config = self.config
        roll = rng.random()
        if roll < config.triadic_probability:
            target = self._triadic_target(live, source, rng)
            if target is not None:
                return target
        elif roll < config.triadic_probability + config.focal_probability:
            target = self._focal_target(live, source, rng)
            if target is not None:
                return target
        return self._attachment_target(live, source, in_degree_pool, all_users, rng)

    def _triadic_target(self, live: _LiveNetwork, source: int, rng) -> Optional[Node]:
        successors, predecessors = live.successors, live.predecessors
        # A user's social neighbours: successors | predecessors (never the
        # user itself, since self-links are refused).
        neighbors = list(successors[source] | predecessors[source])
        if not neighbors:
            return None
        out = successors[source]
        for _ in range(5):
            intermediate = neighbors[rng.randrange(len(neighbors))]
            second = [
                node
                for node in successors[intermediate] | predecessors[intermediate]
                if node != source and node not in out
            ]
            if second:
                return second[rng.randrange(len(second))]
        return None

    def _weighted_attribute_of(self, live: _LiveNetwork, source: int, rng) -> Optional[int]:
        """Pick one of the source's attributes weighted by its type's focal weight.

        The attributes are taken in label order, so the cumulative-weight
        draw does not depend on how the id set iterates.
        """
        labels = live.labels
        attributes = sorted(live.attributes[source], key=labels.__getitem__)
        if not attributes:
            return None
        info = live.info
        weights = [
            self.config.focal_type_weights.get(info[attribute].attr_type, 1.0)
            for attribute in attributes
        ]
        total = sum(weights)
        if total <= 0:
            return attributes[rng.randrange(len(attributes))]
        threshold = rng.random() * total
        cumulative = 0.0
        for attribute, weight in zip(attributes, weights):
            cumulative += weight
            if cumulative >= threshold:
                return attribute
        return attributes[-1]

    def _member_of_attribute(
        self, live: _LiveNetwork, attribute: int, source: int, rng
    ) -> Optional[Node]:
        """Pick a community member with probability ∝ (in-degree + 1).

        Weighting by degree keeps the within-community choice consistent with
        LAPA's ``d_i(v) * (1 + beta a(u, v))`` form, which is what makes
        ``alpha = 1`` the best-fitting exponent in the Figure 15 sweep.
        """
        out = live.successors[source]
        members = [
            node for node in live.members[attribute] if node != source and node not in out
        ]
        if not members:
            return None
        predecessors = live.predecessors
        weights = [len(predecessors[node]) + 1.0 for node in members]
        total = sum(weights)
        threshold = rng.random() * total
        cumulative = 0.0
        for node, weight in zip(members, weights):
            cumulative += weight
            if cumulative >= threshold:
                return node
        return members[-1]

    def _focal_target(self, live: _LiveNetwork, source: int, rng) -> Optional[Node]:
        for _ in range(5):
            attribute = self._weighted_attribute_of(live, source, rng)
            if attribute is None:
                return None
            target = self._member_of_attribute(live, attribute, source, rng)
            if target is not None:
                return target
        return None

    def _attachment_target(
        self,
        live: _LiveNetwork,
        source: int,
        in_degree_pool: List[Node],
        all_users: List[Node],
        rng,
    ) -> Optional[Node]:
        """Attribute-aware attachment: approximate LAPA mixed with plain PA.

        With probability ``attachment_lapa_share`` (and if the source declares
        attributes) the target is drawn from one of the source's attribute
        communities — the practical LAPA heuristic of Section 7; otherwise the
        target follows preferential attachment on in-degree (+1 smoothing).
        """
        config = self.config
        if not all_users:
            return None
        if live.attributes[source] and rng.random() < config.attachment_lapa_share:
            attribute = self._weighted_attribute_of(live, source, rng)
            if attribute is not None:
                target = self._member_of_attribute(live, attribute, source, rng)
                if target is not None:
                    return target
        out = live.successors[source]
        for _ in range(15):
            total = len(in_degree_pool) + len(all_users)
            if in_degree_pool and rng.random() * total < len(in_degree_pool):
                candidate = in_degree_pool[rng.randrange(len(in_degree_pool))]
            else:
                candidate = all_users[rng.randrange(len(all_users))]
            if candidate != source and candidate not in out:
                return candidate
        return None


def simulate_google_plus(
    config: Optional[GooglePlusConfig] = None, rng: RngLike = None
) -> GroundTruthEvolution:
    """Convenience wrapper: run the simulator once and return the evolution."""
    return GooglePlusSimulator(config=config, rng=rng).run()
