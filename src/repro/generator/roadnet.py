"""Synthetic road networks.

A road network is an undirected graph embedded in the unit-square world:
nodes are intersections with coordinates, edges are road segments with a
road class that determines travel speed.  Two builders are provided:

* :func:`manhattan_city` — a regular grid of streets with periodic
  arterials and a highway ring, the classic synthetic stand-in for the
  city maps shipped with Brinkhoff's generator;
* :func:`random_network` — random intersections connected to their
  nearest neighbours plus a spanning backbone, guaranteeing a connected
  graph for routing.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.geometry import Point, Rect


class RoadClass(enum.Enum):
    """Road categories with distinct free-flow speeds (space units / s).

    The unit-square world models a ~20 km city, so 0.0008/s is about
    58 km/h.  At these speeds an object covers 1-4 thousandths of the
    world per 5-second evaluation period — small relative to the paper's
    0.01-0.04 query side lengths, which is what makes incremental
    evaluation pay off (answers overlap heavily between periods).
    """

    HIGHWAY = "highway"
    ARTERIAL = "arterial"
    STREET = "street"

    @property
    def speed(self) -> float:
        return _ROAD_SPEEDS[self]


_ROAD_SPEEDS = {
    RoadClass.HIGHWAY: 0.0008,
    RoadClass.ARTERIAL: 0.0004,
    RoadClass.STREET: 0.0002,
}


@dataclass(frozen=True, slots=True)
class RoadEdge:
    """An undirected road segment between two node ids."""

    u: int
    v: int
    road_class: RoadClass
    length: float

    @property
    def travel_time(self) -> float:
        return self.length / self.road_class.speed

    def other_end(self, node: int) -> int:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of this edge")


@dataclass(slots=True)
class RoadNetwork:
    """An embedded road graph with adjacency lookup."""

    nodes: dict[int, Point] = field(default_factory=dict)
    edges: list[RoadEdge] = field(default_factory=list)
    _adjacency: dict[int, list[RoadEdge]] = field(default_factory=dict)

    def add_node(self, node_id: int, location: Point) -> None:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        self.nodes[node_id] = location
        self._adjacency[node_id] = []

    def add_edge(self, u: int, v: int, road_class: RoadClass) -> RoadEdge:
        if u == v:
            raise ValueError("self-loop edges are not roads")
        for node in (u, v):
            if node not in self.nodes:
                raise KeyError(f"unknown node {node}")
        length = self.nodes[u].distance_to(self.nodes[v])
        edge = RoadEdge(u, v, road_class, length)
        self.edges.append(edge)
        self._adjacency[u].append(edge)
        self._adjacency[v].append(edge)
        return edge

    def edges_from(self, node: int) -> list[RoadEdge]:
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def bounding_rect(self) -> Rect:
        xs = [p.x for p in self.nodes.values()]
        ys = [p.y for p in self.nodes.values()]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def is_connected(self) -> bool:
        """Whether every node is reachable from every other node."""
        if not self.nodes:
            return True
        start = next(iter(self.nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for edge in self._adjacency[node]:
                neighbor = edge.other_end(node)
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.nodes)


def manhattan_city(
    blocks: int = 16,
    world: Rect = Rect(0.0, 0.0, 1.0, 1.0),
    arterial_every: int = 4,
) -> RoadNetwork:
    """A grid city: ``blocks x blocks`` blocks of streets.

    Every ``arterial_every``-th row/column of roads is an arterial, and
    the outer ring is a highway — so shortest *time* paths prefer the
    faster roads, giving the skewed traffic the Brinkhoff generator is
    known for.
    """
    if blocks < 1:
        raise ValueError(f"need at least one block, got {blocks}")
    net = RoadNetwork()
    side = blocks + 1
    dx = world.width / blocks
    dy = world.height / blocks

    for row in range(side):
        for col in range(side):
            net.add_node(
                row * side + col,
                Point(world.min_x + col * dx, world.min_y + row * dy),
            )

    def class_for(line_index: int, is_ring: bool) -> RoadClass:
        if is_ring:
            return RoadClass.HIGHWAY
        if arterial_every > 0 and line_index % arterial_every == 0:
            return RoadClass.ARTERIAL
        return RoadClass.STREET

    for row in range(side):
        is_ring_row = row in (0, side - 1)
        for col in range(blocks):
            net.add_edge(
                row * side + col,
                row * side + col + 1,
                class_for(row, is_ring_row),
            )
    for col in range(side):
        is_ring_col = col in (0, side - 1)
        for row in range(blocks):
            net.add_edge(
                row * side + col,
                (row + 1) * side + col,
                class_for(col, is_ring_col),
            )
    return net


def random_network(
    node_count: int = 200,
    k_nearest: int = 3,
    seed: int = 0,
    world: Rect = Rect(0.0, 0.0, 1.0, 1.0),
) -> RoadNetwork:
    """Random intersections wired to nearest neighbours plus a backbone.

    Each node connects to its ``k_nearest`` nearest neighbours as
    streets; a greedy nearest-unvisited tour is added as an arterial
    backbone to guarantee connectivity.
    """
    if node_count < 2:
        raise ValueError(f"need at least two nodes, got {node_count}")
    rng = random.Random(seed)
    net = RoadNetwork()
    for node_id in range(node_count):
        net.add_node(
            node_id,
            Point(
                world.min_x + rng.random() * world.width,
                world.min_y + rng.random() * world.height,
            ),
        )

    existing: set[frozenset[int]] = set()

    def connect(u: int, v: int, road_class: RoadClass) -> None:
        pair = frozenset((u, v))
        if u != v and pair not in existing:
            existing.add(pair)
            net.add_edge(u, v, road_class)

    locations = net.nodes
    for u in range(node_count):
        ranked = sorted(
            (v for v in range(node_count) if v != u),
            key=lambda v: locations[u].squared_distance_to(locations[v]),
        )
        for v in ranked[:k_nearest]:
            connect(u, v, RoadClass.STREET)

    # Greedy nearest-unvisited tour as the connecting backbone.
    unvisited = set(range(1, node_count))
    current = 0
    while unvisited:
        nearest = min(
            unvisited,
            key=lambda v: locations[current].squared_distance_to(locations[v]),
        )
        connect(current, nearest, RoadClass.ARTERIAL)
        unvisited.discard(nearest)
        current = nearest
    return net
