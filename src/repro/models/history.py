"""Arrival histories: ordered event logs describing how a SAN grew.

The Figure 15 / Section 5.2 evaluations score link-formation models against
*observed* link arrivals: for every new social link we need the state of the
SAN just before the link appeared.  An :class:`ArrivalHistory` captures that
as an initial SAN plus an ordered list of events (node joins, attribute link
additions, social link additions); :meth:`ArrivalHistory.final_san` applies
them all.

A history comes in two forms.  :class:`HistoryColumns` holds it as int
columns, the form the Figure 15 encoder reads: the synthetic Google+
evolution cuts it as a window of its own event log and an Algorithm 1 run
lowers its compact log into it.  :class:`ArrivalHistory` holds label-keyed
event objects; it comes from :meth:`ArrivalHistory.from_snapshots`, which
reconstructs one by diffing two snapshots (arrival order within the gap is
unknown, so new nodes come first, then new attribute links, then new social
links, each sorted by label — the same approximation one has to make with
real daily crawls), and from
an Algorithm 1 run's :meth:`history`.
:meth:`ArrivalHistory.columns` lowers it into the column form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..graph.protocol import SANView
from ..graph.san import SAN

Node = Hashable

EVENT_NODE = "node"
EVENT_ATTRIBUTE = "attribute"
EVENT_SOCIAL = "social"
EVENT_ATTRIBUTE_REMOVE = "attribute_remove"
EVENT_SOCIAL_REMOVE = "social_remove"

#: Every event kind; a kind's position is its code in the column form.
EVENT_KINDS = (
    EVENT_NODE,
    EVENT_ATTRIBUTE,
    EVENT_SOCIAL,
    EVENT_ATTRIBUTE_REMOVE,
    EVENT_SOCIAL_REMOVE,
)
KIND_NODE, KIND_ATTRIBUTE, KIND_SOCIAL, KIND_ATTRIBUTE_REMOVE, KIND_SOCIAL_REMOVE = range(5)
_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}


@dataclass(frozen=True)
class ArrivalEvent:
    """A single growth (or churn) event.

    ``kind`` is one of ``"node"`` (a new social node ``first`` joins),
    ``"attribute"`` (social node ``first`` links to attribute node ``second``
    of type ``attr_type``), ``"social"`` (directed social link ``first ->
    second``), or the churn counterparts ``"attribute_remove"`` /
    ``"social_remove"`` (the named link is deleted — users changing employers,
    unfollows).
    """

    kind: str
    first: Node
    second: Optional[Node] = None
    attr_type: str = "generic"
    value: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind != EVENT_NODE and self.second is None:
            raise ValueError(f"{self.kind} events need a second endpoint")


@dataclass(frozen=True)
class HistoryColumns:
    """An arrival history as int columns (the Figure 15 encoder's input).

    Social nodes are ids ``0 .. n - 1`` and attribute nodes are ids into an
    attribute table the producer keeps.  The initial state holds social
    nodes ``0 .. num_initial_nodes - 1``, attribute ids
    ``0 .. num_initial_attributes - 1``, the social edges ``initial_src[k] ->
    initial_dst[k]`` and the attribute links ``(initial_member[k],
    initial_attribute[k])``, each listed once.  Event ``i`` has kind code
    ``kind[i]`` (a position in :data:`EVENT_KINDS`); ``first[i]`` is a
    social node and ``second[i]`` is the target of a social link or removal,
    the attribute of an attribute link or removal, or -1 for a join.
    """

    num_initial_nodes: int
    num_initial_attributes: int
    initial_src: np.ndarray
    initial_dst: np.ndarray
    initial_member: np.ndarray
    initial_attribute: np.ndarray
    kind: np.ndarray
    first: np.ndarray
    second: np.ndarray

    @property
    def num_events(self) -> int:
        return int(self.kind.size)

    def num_social_links(self) -> int:
        return int(np.count_nonzero(self.kind == KIND_SOCIAL))


@dataclass
class ArrivalHistory:
    """An initial SAN plus the ordered growth events applied on top of it."""

    initial: SAN = field(default_factory=SAN)
    events: List[ArrivalEvent] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording helpers (used by generators)
    # ------------------------------------------------------------------
    def record_node(self, node: Node) -> None:
        self.events.append(ArrivalEvent(EVENT_NODE, node))

    def record_attribute_link(
        self, social: Node, attribute: Node, attr_type: str = "generic", value: str | None = None
    ) -> None:
        self.events.append(
            ArrivalEvent(EVENT_ATTRIBUTE, social, attribute, attr_type=attr_type, value=value)
        )

    def record_social_link(self, source: Node, target: Node) -> None:
        self.events.append(ArrivalEvent(EVENT_SOCIAL, source, target))

    def record_attribute_removal(self, social: Node, attribute: Node) -> None:
        self.events.append(ArrivalEvent(EVENT_ATTRIBUTE_REMOVE, social, attribute))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def num_social_links(self) -> int:
        return sum(1 for event in self.events if event.kind == EVENT_SOCIAL)

    def columns(self) -> HistoryColumns:
        """This history as :class:`HistoryColumns`, interning labels as ids.

        Initial social nodes take ids in ``initial.social_nodes()`` order and
        every later node the next id where it first appears: as an event's
        ``first``, or as a social link's ``second``.  Attribute nodes take
        ids in ``initial.attribute_nodes()`` order, then in order of their
        first attribute link.  A removal's ``second`` is looked up, never
        interned (-1 when unseen).
        """
        initial = self.initial
        nodes: Dict[Node, int] = {}
        for node in initial.social_nodes():
            nodes[node] = len(nodes)
        attributes: Dict[Node, int] = {}
        for attribute in initial.attribute_nodes():
            attributes[attribute] = len(attributes)
        num_initial_nodes, num_initial_attributes = len(nodes), len(attributes)
        edges = [(nodes[s], nodes[t]) for s, t in initial.social_edges()]
        links = [(nodes[s], attributes[a]) for s, a in initial.attribute_edges()]
        kinds: List[int] = []
        firsts: List[int] = []
        seconds: List[int] = []
        for event in self.events:
            code = _KIND_CODE[event.kind]
            kinds.append(code)
            firsts.append(nodes.setdefault(event.first, len(nodes)))
            if code == KIND_SOCIAL:
                seconds.append(nodes.setdefault(event.second, len(nodes)))
            elif code == KIND_ATTRIBUTE:
                seconds.append(attributes.setdefault(event.second, len(attributes)))
            elif code == KIND_SOCIAL_REMOVE:
                seconds.append(nodes.get(event.second, -1))
            elif code == KIND_ATTRIBUTE_REMOVE:
                seconds.append(attributes.get(event.second, -1))
            else:
                seconds.append(-1)

        def pair_columns(pairs: List[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
            array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            return array[:, 0].copy(), array[:, 1].copy()

        initial_src, initial_dst = pair_columns(edges)
        initial_member, initial_attribute = pair_columns(links)
        return HistoryColumns(
            num_initial_nodes=num_initial_nodes,
            num_initial_attributes=num_initial_attributes,
            initial_src=initial_src,
            initial_dst=initial_dst,
            initial_member=initial_member,
            initial_attribute=initial_attribute,
            kind=np.asarray(kinds, dtype=np.int64),
            first=np.asarray(firsts, dtype=np.int64),
            second=np.asarray(seconds, dtype=np.int64),
        )

    def final_san(self) -> SAN:
        """The SAN obtained by applying every event to the initial state."""
        state = self.initial.copy()
        for event in self.events:
            apply_event(state, event)
        return state

    # ------------------------------------------------------------------
    # Construction from snapshots
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshots(cls, earlier: SANView, later: SANView) -> "ArrivalHistory":
        """Approximate history between two snapshots of the same network.

        Either snapshot may be a mutable :class:`~repro.graph.san.SAN` or a
        :class:`~repro.graph.frozen.FrozenSAN`.

        New social nodes are emitted first, then new attribute links, then
        new social links, each group in :func:`_label_order`; the initial SAN
        is ``earlier`` with its nodes added in that order too.  So the
        history, and every score computed from it, depends only on the two
        snapshots' content: not on the order their links were loaded in, nor
        on how sets of string labels iterate under ``PYTHONHASHSEED``.
        """
        history = cls(initial=_label_ordered_copy(earlier))
        new_nodes = [
            node for node in later.social_nodes() if not earlier.is_social_node(node)
        ]
        for node in sorted(new_nodes, key=_label_order):
            history.record_node(node)
        new_links = [
            (social, attribute)
            for social, attribute in later.attribute_edges()
            if not earlier.has_attribute_edge(social, attribute)
        ]
        for social, attribute in sorted(new_links, key=_pair_order):
            info = later.attribute_info(attribute)
            history.record_attribute_link(
                social, attribute, attr_type=info.attr_type, value=info.value
            )
        new_edges = [
            (source, target)
            for source, target in later.social_edges()
            if not earlier.has_social_edge(source, target)
        ]
        for source, target in sorted(new_edges, key=_pair_order):
            history.record_social_link(source, target)
        return history


def _label_order(label: Node) -> Tuple[int, object]:
    """Sort key of one total order on node labels: ints first by value, then
    every other label by its string."""
    if isinstance(label, int):
        return (0, label)
    return (1, str(label))


def _pair_order(pair: Tuple[Node, Node]) -> Tuple[Tuple[int, object], Tuple[int, object]]:
    return _label_order(pair[0]), _label_order(pair[1])


def _label_ordered_copy(san: SANView) -> SAN:
    """``san`` rebuilt with its nodes, then its links, added in
    :func:`_label_order`, so node ids interned from it follow that order and
    its links iterate alike whichever backend or load order ``san`` had."""
    copy = SAN()
    for node in sorted(san.social_nodes(), key=_label_order):
        copy.add_social_node(node)
    for attribute in sorted(san.attribute_nodes(), key=_label_order):
        info = san.attribute_info(attribute)
        copy.add_attribute_node(attribute, attr_type=info.attr_type, value=info.value)
    for source, target in sorted(san.social_edges(), key=_pair_order):
        copy.add_social_edge(source, target)
    for social, attribute in sorted(san.attribute_edges(), key=_pair_order):
        copy.add_attribute_edge(social, attribute)
    return copy


def apply_event(san: SAN, event: ArrivalEvent) -> None:
    """Apply one growth or churn event to ``san`` in place."""
    if event.kind == EVENT_NODE:
        san.add_social_node(event.first)
    elif event.kind == EVENT_ATTRIBUTE:
        san.add_attribute_edge(
            event.first, event.second, attr_type=event.attr_type, value=event.value
        )
    elif event.kind == EVENT_ATTRIBUTE_REMOVE:
        san.remove_attribute_edge(event.first, event.second)
    elif event.kind == EVENT_SOCIAL_REMOVE:
        san.remove_social_edge(event.first, event.second)
    else:
        san.add_social_edge(event.first, event.second)
