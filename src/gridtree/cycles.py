"""Cycle-space machinery: fundamental cycle bases and edge exchanges.

A cycle is a frozenset of edge ids.  A fundamental cycle is found on the tree
rooted by ``graph.root_tree`` by walking both ends of its co-tree edge up to
their lowest common ancestor.  The sensors a cycle carries are the
intersection of its edge set with the placement's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, NotASpanningTreeError
from .graph import Graph, SpanningTree, is_spanning_tree, root_tree


# -- fundamental cycle bases ----------------------------------------------


@dataclass(frozen=True)
class FundamentalCycleBasis:
    """The cycles obtained by adding each co-tree edge back to a spanning tree.

    ``generators[k]`` is the co-tree edge that generates ``cycles[k]``; it
    appears in no other cycle of the basis.
    """

    cycles: tuple[frozenset[int], ...]
    generators: tuple[int, ...]

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
        cycles.append(frozenset(path) | {g})
    return FundamentalCycleBasis(tuple(cycles), generators)


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
    candidates = [sorted(c & set(target_cotree)) for c in basis.cycles]

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
