"""Directed extension of the Zheleva et al. co-evolution baseline ("Zhel").

Zheleva, Sharara and Getoor (KDD 2009) model the co-evolution of a social
network and affiliation groups: the *social structure drives group
membership* (a node joins groups its friends belong to), while links form by
preferential attachment and triangle closing with no attribute influence.
That is exactly the converse of the paper's model, which is why it serves as
the comparison baseline in Section 6.

The original model is undirected; following the paper's footnote 5 we extend
it to a directed setting by emitting each created link as a directed outgoing
link (with an optional reciprocation probability so its reciprocity is in the
same range as the reference network).

Key properties (which the evaluation relies on):

* social in/out-degree come out power-law-like (pure preferential attachment),
  not lognormal;
* attribute (group) degrees of social nodes are geometric-like rather than
  lognormal;
* the attribute structure has no influence on the social structure, so the
  attribute clustering coefficient and the application benchmarks deviate from
  the reference SAN.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from ..graph.builders import complete_seed_san
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng
from .lifetime import sample_sleep_time
from .parameters import ZhelModelParameters

Node = Hashable


def generate_zhel_san(
    params: Optional[ZhelModelParameters] = None, rng: RngLike = None
) -> SAN:
    """Run the directed Zhel process for ``params.steps`` steps; return the SAN.

    Draws over a set of group labels order it by ``str(label)`` first, so
    the output does not depend on ``PYTHONHASHSEED``.
    """
    params = params if params is not None else ZhelModelParameters()
    rng = ensure_rng(rng)

    san = complete_seed_san(params.seed_social_nodes, params.seed_attribute_nodes)

    node_pool: List[Node] = list(san.social_nodes())
    in_degree_pool: List[Node] = [target for _, target in san.social_edges()]
    group_pool: List[Node] = sorted(
        (attr for _, attr in san.attribute_edges()), key=str
    )
    next_social_id = max(int(node) for node in node_pool) + 1

    death_time: Dict[Node, float] = {node: float("inf") for node in node_pool}
    wake_heap: List[Tuple[float, int, Node]] = []
    heap_counter = 0

    def add_social_edge(source: Node, target: Node) -> bool:
        if source == target or san.has_social_edge(source, target):
            return False
        san.add_social_edge(source, target)
        in_degree_pool.append(target)
        return True

    def preferential_target(source: Node) -> Optional[Node]:
        """Pure PA on in-degree with +1 smoothing (no attribute term)."""
        for _ in range(20):
            if rng.random() * (len(in_degree_pool) + len(node_pool)) < len(in_degree_pool) and in_degree_pool:
                candidate = in_degree_pool[rng.randrange(len(in_degree_pool))]
            else:
                candidate = node_pool[rng.randrange(len(node_pool))]
            if candidate != source:
                return candidate
        return None

    def triangle_target(source: Node) -> Optional[Node]:
        """Random-Random closure on the social layer only."""
        neighbors = list(san.social_neighbors(source))
        if not neighbors:
            return None
        for _ in range(10):
            intermediate = neighbors[rng.randrange(len(neighbors))]
            second = [n for n in san.social_neighbors(intermediate) if n != source]
            if second:
                return second[rng.randrange(len(second))]
        return None

    def link_from(source: Node) -> None:
        if rng.random() < params.triangle_probability:
            target = triangle_target(source)
            if target is None:
                target = preferential_target(source)
        else:
            target = preferential_target(source)
        if target is not None and add_social_edge(source, target):
            if rng.random() < params.reciprocation_probability:
                add_social_edge(target, source)

    next_group = 0

    def join_groups(node: Node) -> None:
        """Group membership driven by the social structure (friends' groups)."""
        nonlocal next_group
        num_groups = max(0, int(round(rng.expovariate(1.0 / params.mean_groups_per_node))))
        for _ in range(num_groups):
            group: Optional[Node] = None
            friends = list(san.social_neighbors(node))
            if friends and rng.random() < params.copy_friend_group_probability:
                friend = friends[rng.randrange(len(friends))]
                friend_groups = sorted(san.attribute_neighbors(friend), key=str)
                if friend_groups:
                    group = friend_groups[rng.randrange(len(friend_groups))]
            if group is None:
                if rng.random() < params.new_group_probability or not group_pool:
                    group = f"group:{next_group}"
                    next_group += 1
                else:
                    group = group_pool[rng.randrange(len(group_pool))]
            if san.has_attribute_edge(node, group):
                continue
            san.add_attribute_edge(node, group, attr_type="group")
            group_pool.append(group)

    for step in range(1, params.steps + 1):
        for _ in range(params.arrivals_per_step):
            new_node = next_social_id
            next_social_id += 1
            san.add_social_node(new_node)
            node_pool.append(new_node)

            # First link(s) by preferential attachment, then groups copied
            # from friends — the social structure drives the attributes.
            link_from(new_node)
            join_groups(new_node)

            # Prior models (Leskovec et al., Zheleva et al.) use an
            # exponentially distributed lifetime; combined with the
            # degree-proportional wake rate this yields a power-law
            # out-degree with tail exponent 1 + mean_sleep / mean_lifetime
            # instead of our model's lognormal (Figure 16e-f).
            mean_lifetime = params.lifetime.mean_sleep / (
                params.lifetime_tail_exponent - 1.0
            )
            lifetime = rng.expovariate(1.0 / max(mean_lifetime, 1e-6))
            death_time[new_node] = step + lifetime
            sleep = sample_sleep_time(
                params.lifetime, san.social_out_degree(new_node), rng=rng
            )
            heap_counter += 1
            heapq.heappush(wake_heap, (step + sleep, heap_counter, new_node))

        while wake_heap and wake_heap[0][0] <= step:
            wake_time, _, node = heapq.heappop(wake_heap)
            if wake_time > death_time.get(node, 0.0):
                continue
            for _ in range(params.links_per_wakeup):
                link_from(node)
            sleep = sample_sleep_time(
                params.lifetime, san.social_out_degree(node), rng=rng
            )
            heap_counter += 1
            heapq.heappush(wake_heap, (wake_time + sleep, heap_counter, node))

    return san
