"""Undirected multigraph with fixed reference directions, plus spanning-tree machinery.

Edges are identified by dense integer ids ``0..|E|-1``; each edge carries a
reference direction (tail -> head) fixed at construction time.  All signed
flow quantities elsewhere in the package are expressed in this frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    GridTreeError,
    InfeasibleConstraintError,
    MalformedGraphError,
    ModelError,
    NotASpanningTreeError,
    UnknownEdgeError,
)


def _finite(values: Sequence[float], what: str) -> np.ndarray:
    """``values`` as a float array; ModelError if any entry is NaN or infinite."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():  # not np.all(), which adds about 2.5 us on small arrays
        raise ModelError(f"{what} must be finite")
    return v


class UnionFind:
    """Disjoint sets over ``n`` integer items with union by size."""

    __slots__ = ("parent", "size", "n_components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def copy(self) -> "UnionFind":
        other = UnionFind.__new__(UnionFind)
        other.parent = self.parent.copy()
        other.size = self.size.copy()
        other.n_components = self.n_components
        return other


class Graph:
    """Connected undirected multigraph; parallel edges allowed, self-loops rejected.

    Parameters
    ----------
    vertices : ordered vertex ids (hashables, typically strings or ints)
    edges    : sequence of (tail, head) pairs; position in the sequence is the edge id
               and (tail, head) is the reference direction for signed flows
    root     : designated source vertex; defaults to the first vertex
    load_vertices : vertices that carry consumption; defaults to every non-root vertex
    """

    def __init__(
        self,
        vertices: Iterable[Hashable],
        edges: Iterable[tuple[Hashable, Hashable]],
        root: Hashable | None = None,
        load_vertices: Sequence[Hashable] | None = None,
    ):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise MalformedGraphError("duplicate vertex ids")
        if not self.vertices:
            raise MalformedGraphError("graph needs at least one vertex")
        self._vidx = {v: i for i, v in enumerate(self.vertices)}

        self.edges = tuple((u, v) for u, v in edges)
        for eid, (u, v) in enumerate(self.edges):
            if u not in self._vidx or v not in self._vidx:
                raise MalformedGraphError(f"edge {eid} references unknown vertex")
            if u == v:
                raise MalformedGraphError(f"edge {eid} is a self-loop on {u!r}")
        self._ends = tuple((self._vidx[u], self._vidx[v]) for u, v in self.edges)  # (tail, head) indices

        self.root = self.vertices[0] if root is None else root
        if self.root not in self._vidx:
            raise MalformedGraphError(f"root {self.root!r} is not a vertex")

        if load_vertices is None:
            self.load_vertices = tuple(v for v in self.vertices if v != self.root)
        else:
            self.load_vertices = tuple(load_vertices)
            for v in self.load_vertices:
                if v not in self._vidx:
                    raise MalformedGraphError(f"load vertex {v!r} is not a vertex")
                if v == self.root:
                    raise MalformedGraphError("the root cannot carry load")
            if len(set(self.load_vertices)) != len(self.load_vertices):
                raise MalformedGraphError("duplicate load vertices")

    # -- basic accessors ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, v: Hashable) -> int:
        return self._vidx[v]

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only float ``build_incidence``, built on first use."""
        B = build_incidence(self).astype(float)
        B.setflags(write=False)
        return B

    @cached_property
    def reduced_incidence(self) -> np.ndarray:
        """Read-only ``incidence`` without the root's row, (|V|-1) x |E|."""
        Br = np.delete(self.incidence, self.root_index, axis=0)
        Br.setflags(write=False)
        return Br

    @property
    def root_index(self) -> int:
        return self._vidx[self.root]

    def check_edges(self, eids: Iterable[int]) -> tuple[int, ...]:
        """``eids``, read once, as a tuple; UnknownEdgeError for an id that is
        not an integer in ``0..|E|-1``."""
        ids = tuple(eids)
        for eid in ids:
            if not isinstance(eid, (int, np.integer)) or not 0 <= eid < len(self.edges):
                raise UnknownEdgeError(f"unknown edge id {eid!r}")
        return ids

    def root_edges(self) -> frozenset[int]:
        """Edges incident to the root (the mandatory subtree in feeder graphs)."""
        return frozenset(eid for eid, ends in enumerate(self.edges) if self.root in ends)

    def with_load_vertices(self, load_vertices: Sequence[Hashable]) -> "Graph":
        return Graph(self.vertices, self.edges, root=self.root, load_vertices=load_vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.n_vertices} vertices, {self.n_edges} edges, root={self.root!r})"


@dataclass(frozen=True, slots=True)
class SpanningTree:
    """Edge subset forming a spanning tree; hashable, usable as a cache key."""

    edge_ids: frozenset[int]

    @property
    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_ids))

    def cotree(self, graph: Graph) -> tuple[int, ...]:
        return tuple(e for e in range(graph.n_edges) if e not in self.edge_ids)

    def label(self) -> str:
        return " ".join(str(e) for e in self.sorted_ids)


# -- incidence algebra ---------------------------------------------------


def build_incidence(graph: Graph) -> np.ndarray:
    """|V| x |E| incidence matrix: +1 at the tail of each edge, -1 at the head.

    Row order follows the graph's vertex order, column order the edge ids.
    """
    B = np.zeros((graph.n_vertices, graph.n_edges), dtype=np.int64)
    for eid, (i, j) in enumerate(graph._ends):
        B[i, eid] = 1
        B[j, eid] = -1
    return B


def circuit_rank(graph: Graph) -> int:
    """Dimension of the cycle space: |E| - |V| + (number of components)."""
    uf = UnionFind(graph.n_vertices)
    for i, j in graph._ends:
        uf.union(i, j)
    return graph.n_edges - graph.n_vertices + uf.n_components


def is_spanning_tree(graph: Graph, edge_ids: Iterable[int]) -> bool:
    """True iff the edge subset has |V|-1 edges, is acyclic and spans all vertices."""
    ids = graph.check_edges(edge_ids)
    if len(set(ids)) != len(ids) or len(ids) != graph.n_vertices - 1:
        return False
    uf = UnionFind(graph.n_vertices)
    for eid in ids:
        if not uf.union(*graph._ends[eid]):
            return False
    return uf.n_components == 1


def root_tree(graph: Graph, tree: SpanningTree):
    """Root ``tree`` at the graph root by a stack DFS.

    Returns ``(parent, depth, order)``: ``parent[v]`` is ``(parent vertex,
    parent edge)``, ``(None, None)`` at the root; ``depth[v]`` counts the tree
    edges between ``v`` and the root; ``order`` lists the vertices in pop
    order, so every vertex comes after its parent.  Raises UnknownEdgeError
    for an edge id that is not an integer in ``0..|E|-1`` and
    NotASpanningTreeError unless the edge set has exactly |V|-1 edges and
    reaches every vertex.
    """
    if len(tree.edge_ids) != graph.n_vertices - 1:
        raise NotASpanningTreeError("a spanning tree needs exactly |V|-1 edges")
    adj: dict = {v: [] for v in graph.vertices}
    for eid in graph.check_edges(tree.edge_ids):
        u, v = graph.edges[eid]
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    parent: dict = {graph.root: (None, None)}
    depth = {graph.root: 0}
    order = []
    stack = [graph.root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y, eid in adj[x]:
            if y not in parent:
                parent[y] = (x, eid)
                depth[y] = depth[x] + 1
                stack.append(y)
    if len(order) != graph.n_vertices:
        raise NotASpanningTreeError("tree does not span the graph")
    return parent, depth, order


def _required_forest(graph: Graph, required_edges: Iterable[int]) -> tuple[list[int], UnionFind]:
    """``required_edges`` sorted without repeats, and the vertex sets they join.

    Raises UnknownEdgeError for an id that is not an edge and
    InfeasibleConstraintError if the edges contain a cycle.
    """
    req = sorted(set(graph.check_edges(required_edges)))
    uf = UnionFind(graph.n_vertices)
    for eid in req:
        if not uf.union(*graph._ends[eid]):
            raise InfeasibleConstraintError("required edges contain a cycle")
    return req, uf


def enumerate_spanning_trees(
    graph: Graph, required_edges: Iterable[int] = ()
) -> Iterator[SpanningTree]:
    """Yield every spanning tree containing ``required_edges`` exactly once.

    Backtracking over edge ids in increasing order with a connectivity prune,
    so every recursion branch emits at least one tree and the output order is
    deterministic for a fixed edge order.
    """
    req, uf0 = _required_forest(graph, required_edges)
    n = graph.n_vertices
    req_set = set(req)
    free = [e for e in range(graph.n_edges) if e not in req_set]
    free_ends = [graph._ends[e] for e in free]
    need = n - 1 - len(req)

    def completable(uf: UnionFind, pos: int) -> bool:
        if uf.n_components == 1:
            return True
        probe = uf.copy()
        for a, b in free_ends[pos:]:
            if probe.union(a, b) and probe.n_components == 1:
                return True
        return False

    chosen: list[int] = []

    def extend(pos: int, uf: UnionFind) -> Iterator[SpanningTree]:
        if len(chosen) == need:
            yield SpanningTree(frozenset(req_set) | frozenset(chosen))
            return
        last = len(free) - (need - len(chosen)) + 1
        for i in range(pos, last):
            a, b = free_ends[i]
            if uf.find(a) == uf.find(b):
                continue
            nxt = uf.copy()
            nxt.union(a, b)
            if completable(nxt, i + 1):
                chosen.append(free[i])
                yield from extend(i + 1, nxt)
                chosen.pop()

    if completable(uf0, 0):
        yield from extend(0, uf0)


def count_spanning_trees(graph: Graph, required_edges: Iterable[int] = ()) -> int:
    """Number of spanning trees containing ``required_edges``, by the matrix-tree theorem.

    The required edges are contracted, and the count is the determinant of a
    Laplacian minor of the contracted multigraph (Kirchhoff), computed in
    exact integer arithmetic (fraction-free elimination), so the result is
    usable as an equality oracle against enumeration.  Returns 0 for a
    disconnected graph.  Raises as ``enumerate_spanning_trees`` does for
    unknown or cyclic required edges.
    """
    _, uf = _required_forest(graph, required_edges)
    # one Laplacian row per vertex set the required edges join
    node: dict[int, int] = {}
    of = [node.setdefault(uf.find(x), len(node)) for x in range(graph.n_vertices)]
    n = len(node)
    if n == 1:
        return 1
    L = [[0] * n for _ in range(n)]
    for a, b in graph._ends:
        i, j = of[a], of[b]
        if i != j:  # an edge within one set would close a cycle with the required edges
            L[i][i] += 1
            L[j][j] += 1
            L[i][j] -= 1
            L[j][i] -= 1
    a = [row[1:] for row in L[1:]]
    m = n - 1
    prev = 1
    for k in range(m - 1):
        # a[k][k] is the (k+1)-th leading principal minor of this positive
        # semidefinite matrix: if it is 0, so is the determinant (Fischer)
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return a[m - 1][m - 1]


def max_weight_spanning_tree(
    graph: Graph, weights: Sequence[float], required_edges: Iterable[int] = ()
) -> SpanningTree | list[SpanningTree]:
    """Greedy maximum-weight spanning tree; ties broken by smallest edge id.

    ``weights`` is one row of |E| weights, giving one tree, or a block of
    rows, giving a list of trees.  The weights and ``required_edges`` are
    checked, and the required forest built, once per call; each row then
    extends a copy of that forest in the order of one stable argsort of its
    negated weights.  ModelError for a non-finite weight; the other errors
    hold for every row.
    """
    w = _finite(weights, "weights")
    if w.ndim not in (1, 2) or w.shape[-1] != graph.n_edges:
        raise GridTreeError("one weight per edge required")
    req, uf0 = _required_forest(graph, required_edges)
    trees, ends, need = [], graph._ends, graph.n_vertices - 1
    for order in np.argsort(-np.atleast_2d(w), axis=1, kind="stable").tolist():
        picked, uf = req.copy(), uf0.copy()
        for eid in order:
            if uf.union(*ends[eid]):
                picked.append(eid)
                if len(picked) == need:
                    break
        if len(picked) != need:
            raise MalformedGraphError("graph is not connected")
        trees.append(SpanningTree(frozenset(picked)))
    return trees if w.ndim == 2 else trees[0]
