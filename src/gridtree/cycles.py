"""Cycle-space machinery: fundamental bases, XOR algebra, sensor maps, edge exchanges.

Cycles live in GF(2)^|E|: a cycle is an edge set in which every touched vertex
has degree exactly two and the edges form a single closed walk.  Symmetric
difference is the vector addition of this space; it is closed over the cycle
space but not over single cycles, so XOR results carry a validity flag.
A fundamental cycle is found on the tree rooted by ``graph.root_tree`` by
walking both ends of its co-tree edge up to their lowest common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import InternalInvariantError, NotASpanningTreeError
from .graph import Graph, SpanningTree, UnionFind, is_spanning_tree, root_tree


@dataclass(frozen=True)
class Cycle:
    """A single cycle, stored as its edge-id set."""

    edges: frozenset[int]

    def __contains__(self, eid: int) -> bool:
        return eid in self.edges

    def __len__(self) -> int:
        return len(self.edges)


def is_cycle(graph: Graph, edge_ids: Iterable[int]) -> bool:
    """True iff the edges form one nonempty closed walk with all degrees 2."""
    ids = set(edge_ids)
    if not ids:
        return False
    degree: dict = {}
    for eid in ids:
        u, v = graph.endpoints(eid)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if any(d != 2 for d in degree.values()):
        return False
    verts = {v: i for i, v in enumerate(degree)}
    uf = UnionFind(len(verts))
    for eid in ids:
        u, v = graph.endpoints(eid)
        uf.union(verts[u], verts[v])
    return uf.n_components == 1


class XorResult(NamedTuple):
    edges: frozenset[int]
    is_cycle: bool


def cycle_xor(graph: Graph, a: Cycle | Iterable[int], b: Cycle | Iterable[int]) -> XorResult:
    """Symmetric difference of two cycles.

    The result is either a single cycle, the empty set (a == b), or an
    edge-disjoint union of cycles; callers that need a single cycle must
    check the flag.
    """
    ea = a.edges if isinstance(a, Cycle) else frozenset(a)
    eb = b.edges if isinstance(b, Cycle) else frozenset(b)
    out = ea ^ eb
    return XorResult(frozenset(out), is_cycle(graph, out))


# -- fundamental cycle bases ----------------------------------------------


@dataclass(frozen=True)
class FundamentalCycleBasis:
    """The cycles obtained by adding each co-tree edge back to a spanning tree.

    ``generators[k]`` is the co-tree edge that generates ``cycles[k]``; it
    appears in no other cycle of the basis.
    """

    cycles: tuple[Cycle, ...]
    generators: tuple[int, ...]

    def cycle_of(self, generator_edge: int) -> Cycle:
        return self.cycles[self.generators.index(generator_edge)]

    def __len__(self) -> int:
        return len(self.cycles)


def fundamental_cycle_basis(graph: Graph, tree: SpanningTree) -> FundamentalCycleBasis:
    """Basis of circuit_rank(G) cycles, one per co-tree edge in ascending id order."""
    parent, depth, _ = root_tree(graph, tree)  # raises unless tree is a spanning tree
    generators = tree.cotree(graph)
    cycles = []
    for g in generators:
        a, b = graph.edges[g]
        if depth[a] < depth[b]:
            a, b = b, a
        path = set()
        while depth[a] > depth[b]:  # climb the deeper end to the other's depth
            a, eid = parent[a]
            path.add(eid)
        while a != b:  # then both ends together up to their lowest common ancestor
            a, ea = parent[a]
            b, eb = parent[b]
            path.add(ea)
            path.add(eb)
        cycles.append(Cycle(frozenset(path) | {g}))
    return FundamentalCycleBasis(tuple(cycles), generators)


# -- cycle-measurement maps ------------------------------------------------


@dataclass(frozen=True)
class CycleMeasurementMap:
    """For each basis cycle, the measured edges lying on it."""

    sensors_per_cycle: tuple[frozenset[int], ...]

    def __getitem__(self, k: int) -> frozenset[int]:
        return self.sensors_per_cycle[k]

    def __len__(self) -> int:
        return len(self.sensors_per_cycle)


def cycle_measurement_map(basis: FundamentalCycleBasis, placement) -> CycleMeasurementMap:
    """Intersect every basis cycle with the measured edge set."""
    measured = frozenset(placement.edge_ids)
    return CycleMeasurementMap(tuple(c.edges & measured for c in basis.cycles))


# -- edge exchanges ---------------------------------------------------------


@dataclass(frozen=True)
class ExchangeMove:
    """One per-cycle move: ``into_tree`` enters the tree, ``out_of_tree`` leaves it.

    Identity moves (into == out) mark edges absent from both trees.
    """

    into_tree: int
    out_of_tree: int
    cycle_index: int

    @property
    def is_identity(self) -> bool:
        return self.into_tree == self.out_of_tree


@dataclass(frozen=True)
class EdgeExchange:
    moves: tuple[ExchangeMove, ...]
    source: SpanningTree
    target: SpanningTree


def encode_edge_exchange(graph: Graph, source: SpanningTree, target: SpanningTree) -> EdgeExchange:
    """Express target = source after one single-edge move per fundamental cycle.

    Each co-tree edge of the source generates one cycle; the matching pairs it
    with a co-tree edge of the target lying on that cycle.  A perfect matching
    always exists for two spanning trees of the same graph, and any perfect
    matching automatically maps edges missing from both trees to themselves
    (such an edge lies only on its own fundamental cycle).
    """
    basis = fundamental_cycle_basis(graph, source)
    if not is_spanning_tree(graph, target.edge_ids):
        raise NotASpanningTreeError("exchange target must be a spanning tree")
    target_cotree = sorted(e for e in range(graph.n_edges) if e not in target.edge_ids)
    candidates = [sorted(c.edges & set(target_cotree)) for c in basis.cycles]

    assigned: dict[int, int] = {}  # target co-tree edge -> cycle index

    def assign(k: int, banned: set[int]) -> bool:
        for t in candidates[k]:
            if t in banned:
                continue
            banned.add(t)
            if t not in assigned or assign(assigned[t], banned):
                assigned[t] = k
                return True
        return False

    for k in range(len(basis)):
        if not assign(k, set()):
            raise InternalInvariantError("edge-exchange assignment exhausted")

    by_cycle = {k: t for t, k in assigned.items()}
    moves = tuple(
        ExchangeMove(into_tree=basis.generators[k], out_of_tree=by_cycle[k], cycle_index=k)
        for k in range(len(basis))
    )
    return EdgeExchange(moves=moves, source=source, target=target)


def apply_edge_exchange(graph: Graph, exchange: EdgeExchange) -> SpanningTree:
    """Apply all moves to the source tree; the result is certified spanning."""
    edges = set(exchange.source.edge_ids)
    for mv in exchange.moves:
        if mv.is_identity:
            continue
        edges.discard(mv.out_of_tree)
        edges.add(mv.into_tree)
    if not is_spanning_tree(graph, edges):
        raise InternalInvariantError("applied exchange is not a spanning tree")
    return SpanningTree(frozenset(edges))
