"""Sensor placements: validity, the tree/placement complement bijection,
family enumeration, and a brute-force identifiability oracle.

A placement is *valid* when removing its edges leaves a spanning tree; that
is exactly the condition under which every operating tree produces a unique
signed flow observation (for generic loads), and it forces the minimum
sensor count |M| = circuit_rank(G).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidPlacementError
from .graph import (
    Graph,
    SpanningTree,
    _finite,
    circuit_rank,
    enumerate_spanning_trees,
    is_spanning_tree,
)


@dataclass(frozen=True)
class Placement:
    """Measured edges; position in the tuple is the sensor index."""

    edge_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", tuple(self.edge_ids))  # so a list compares and hashes
        if len(set(self.edge_ids)) != len(self.edge_ids):
            raise InvalidPlacementError("duplicate sensor edges")

    @functools.cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)

    def __len__(self) -> int:
        return len(self.edge_ids)

    def label(self) -> str:
        return " ".join(str(e) for e in self.edge_ids)


@dataclass(frozen=True)
class PlacementFamily:
    placements: tuple[Placement, ...]
    forbidden: frozenset[int]

    def __len__(self) -> int:
        return len(self.placements)

    def __iter__(self):
        return iter(self.placements)


def is_valid_placement(graph: Graph, placement: Placement) -> bool:
    """True iff the unmeasured edges form a spanning tree (O(|E|) union-find)."""
    graph.check_edges(placement.edge_ids)
    rest = [e for e in range(graph.n_edges) if e not in placement.edge_set]
    return is_spanning_tree(graph, rest)


def placement_to_tree(graph: Graph, placement: Placement) -> SpanningTree:
    if not is_valid_placement(graph, placement):
        raise InvalidPlacementError("complement of the placement is not a spanning tree")
    return SpanningTree(frozenset(range(graph.n_edges)) - placement.edge_set)


def tree_to_placement(graph: Graph, tree: SpanningTree) -> Placement:
    return Placement(tree.cotree(graph))


def tree_placement_bijection(graph: Graph, tree_or_placement):
    """Complement map between spanning trees and valid placements; an involution."""
    if isinstance(tree_or_placement, SpanningTree):
        return tree_to_placement(graph, tree_or_placement)
    if isinstance(tree_or_placement, Placement):
        return placement_to_tree(graph, tree_or_placement)
    raise TypeError("expected a SpanningTree or a Placement")


def enumerate_valid_placements(
    graph: Graph, forbidden_edges: Iterable[int] = ()
) -> PlacementFamily:
    """All minimal valid placements avoiding ``forbidden_edges``.

    These are exactly the complements of the spanning trees that contain the
    forbidden edges, so the family size equals that restricted tree count.
    """
    forbidden = frozenset(forbidden_edges)
    placements = tuple(
        tree_to_placement(graph, t) for t in enumerate_spanning_trees(graph, forbidden)
    )
    return PlacementFamily(placements=placements, forbidden=forbidden)


def naive_identifiability_oracle(
    graph: Graph, placement: Placement, loads: Sequence[float]
) -> bool:
    """Brute-force check that all spanning trees yield distinct observations.

    True when no two trees' exact readings under ``loads`` collide
    (``_collision_fraction`` is 0).  Quadratic in the tree count; meant as
    ground truth for the O(|E|) validity test.  Distinctness is only
    guaranteed to match validity for *generic* loads (drawn from a continuous
    distribution): structured loads such as exact zeros can collide
    observations even for valid placements.  UnknownEdgeError for a sensor
    id outside the graph; ModelError unless the loads are finite, one per
    load vertex.
    """
    obs = _readings(graph, placement, loads)
    if np.any(np.asarray(loads, dtype=float) <= 0):
        warnings.warn("nonpositive loads are degenerate for identifiability checks")
    return _collision_fraction(obs) == 0.0


def _readings(graph: Graph, placement: Placement, loads: Sequence[float], restriction=frozenset()) -> np.ndarray:
    """The sensor columns of ``_tree_flows``, trees x |M| exact readings,
    after the oracle's checks of the sensor ids and the loads."""
    graph.check_edges(placement.edge_ids)
    x = _finite(loads, "loads")
    return _tree_flows(graph, x.tobytes(), x.shape, restriction)[:, list(placement.edge_ids)]


def _collision_fraction(obs: np.ndarray) -> float:
    """Fraction of ordered row pairs that are exactly equal."""
    n = len(obs)
    if n < 2:
        return 0.0
    counts = np.unique(obs, axis=0, return_counts=True)[1]
    return int(np.sum(counts * (counts - 1))) / (n * (n - 1))


@functools.lru_cache(maxsize=1)
def _tree_flows(graph: Graph, loads: bytes, shape: tuple, restriction: frozenset) -> np.ndarray:
    """Edge flows under ``loads`` (float bytes of that shape) of every spanning
    tree containing ``restriction``, as a trees x |E| array.  The oracle and
    the deterministic sweep are asked about many placements of one (graph,
    loads) pair, and the flows do not depend on the placement, so the last
    pair's table is kept."""
    from .flows import tree_edge_flows

    x = np.frombuffer(loads).reshape(shape)
    trees = enumerate_spanning_trees(graph, restriction)
    flows = np.array([tree_edge_flows(graph, t, x) for t in trees]).reshape(-1, graph.n_edges)
    flows.setflags(write=False)
    return flows


def minimum_sensor_count(graph: Graph) -> int:
    """Sensors needed for identifiability: the circuit rank."""
    return circuit_rank(graph)
