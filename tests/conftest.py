import numpy as np
import pytest

from gridtree import Graph, build_island_fixture
from gridtree.graph import UnionFind


@pytest.fixture(scope="session")
def example_graph():
    """Five-vertex, six-edge network with one source and four unit loads.

    Edge ids: 0:(v0,v1) 1:(v1,v2) 2:(v2,v3) 3:(v1,v4) 4:(v1,v3) 5:(v3,v4).
    """
    return Graph(
        ["v0", "v1", "v2", "v3", "v4"],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v1", "v4"), ("v1", "v3"), ("v3", "v4")],
        root="v0",
    )


@pytest.fixture(scope="session")
def island():
    return build_island_fixture()


@pytest.fixture(scope="session")
def island_all_loaded(island):
    """Island topology with generic loads allowed at every non-root vertex."""
    g = island.graph
    return Graph(g.vertices, g.edges, root=g.root)


def _triangle():
    return Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def _k4():
    vs = ["a", "b", "c", "d"]
    es = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    return Graph(vs, es)


def _cycle(n):
    vs = [f"n{i}" for i in range(n)]
    es = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return Graph(vs, es)


def _double_triangle():
    # parallel pair between a and b plus a triangle through c
    return Graph(["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a")])


def _theta6():
    # two hubs joined by three paths (lengths 2, 2, 3); 6 vertices, 7 edges
    vs = ["s", "t", "p", "q", "r1", "r2"]
    es = [
        ("s", "p"), ("p", "t"),
        ("s", "q"), ("q", "t"),
        ("s", "r1"), ("r1", "r2"), ("r2", "t"),
    ]
    return Graph(vs, es)


def _wheel5():
    hub = "h"
    rim = [f"w{i}" for i in range(5)]
    es = [(hub, w) for w in rim] + [(rim[i], rim[(i + 1) % 5]) for i in range(5)]
    return Graph([hub] + rim, es)


@pytest.fixture(scope="session")
def small_corpus(example_graph):
    """Connected graphs with at most 6 vertices, including multigraphs."""
    return [
        ("triangle", _triangle()),
        ("k4", _k4()),
        ("c4", _cycle(4)),
        ("c5", _cycle(5)),
        ("example", example_graph),
        ("double_triangle", _double_triangle()),
        ("theta6", _theta6()),
        ("wheel5", _wheel5()),
    ]


def random_connected_graph(rng: np.random.Generator) -> Graph:
    """Random connected multigraph with 2..8 vertices and a few extra edges."""
    n = int(rng.integers(2, 9))
    vs = [f"v{i}" for i in range(n)]
    edges = []
    order = rng.permutation(n)
    for i in range(1, n):
        a = order[int(rng.integers(0, i))]
        edges.append((vs[a], vs[order[i]]))
    extra = int(rng.integers(0, 5))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        edges.append((vs[int(a)], vs[int(b)]))
    return Graph(vs, edges)


def with_edges_dropped(rng: np.random.Generator, graph: Graph, share: float = 0.4) -> Graph:
    """``graph`` less about ``share`` of its edges, so often disconnected."""
    return Graph(graph.vertices, [e for e in graph.edges if rng.random() >= share])


def random_forest(rng: np.random.Generator, graph: Graph) -> list[int]:
    """A random acyclic edge set: each edge that joins two of the forest's
    trees so far is taken with probability 1/2, in a random order."""
    uf = UnionFind(graph.n_vertices)
    forest = []
    for eid in rng.permutation(graph.n_edges).tolist():
        u, v = (graph.vertex_index(x) for x in graph.edges[eid])
        if uf.find(u) != uf.find(v) and rng.random() < 0.5:
            uf.union(u, v)
            forest.append(eid)
    return forest


def lattice_graph(n: int) -> Graph:
    """n x n grid feeder rooted at a corner; every other vertex carries load."""
    name = [[f"r{i}c{j}" for j in range(n)] for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                edges.append((name[i][j], name[i][j + 1]))
            if i + 1 < n:
                edges.append((name[i][j], name[i + 1][j]))
    vertices = [v for row in name for v in row]
    return Graph(vertices, edges, root=vertices[0])
