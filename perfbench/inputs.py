"""Seeded input generators for the benchmark workloads.

Everything here is derived from the benchmark seed; gridtree only ever sees
the generated graphs, models, placements and readings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from gridtree import (
    Graph,
    LoadModel,
    Placement,
    SpanningTree,
    build_island_fixture,
    count_spanning_trees,
    hypothesis_flow,
    is_valid_placement,
    max_weight_spanning_tree,
    tree_to_placement,
)
from gridtree import fileio

#: Spanning-tree counts of the n x n lattice feeders (matrix-tree theorem).
LATTICE_TREES = {3: 192, 4: 100352}

#: The island placement used by the sweep workload (a minimal valid placement).
ISLAND_PLACEMENT = Placement((6, 7, 10, 12))

#: kW-scale island load means used by the ranking workload.
RANKING_MEANS = (300.0, 290.0, 610.0, 150.0, 440.0)


def round_seed(seed: int, index: int) -> int:
    """CLI seed of unit ``index`` of a run: distinct per unit, fixed per (seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def lattice_feeder(n: int) -> Graph:
    """n x n grid feeder rooted at the corner ``r0c0``; every other vertex carries load.

    Edges run right then down from each vertex, in row-major order; each
    edge's reference direction points away from the root corner.
    """
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


def checked_lattice(n: int) -> Graph:
    """The lattice feeder, after checking its tree count against the known value."""
    graph = lattice_feeder(n)
    count = count_spanning_trees(graph)
    if count != LATTICE_TREES[n]:
        raise RuntimeError(f"{n}x{n} lattice has {count} spanning trees, expected {LATTICE_TREES[n]}")
    return graph


def random_placement(graph: Graph, rng: np.random.Generator) -> Placement:
    """Minimal valid placement: the complement of a random-weight max spanning tree."""
    tree = max_weight_spanning_tree(graph, rng.random(graph.n_edges))
    placement = tree_to_placement(graph, tree)
    if not is_valid_placement(graph, placement):
        raise RuntimeError("complement of a spanning tree is not a valid placement")
    return placement


def uniform_spanning_tree(graph: Graph, rng: np.random.Generator) -> SpanningTree:
    """Uniformly random spanning tree by Wilson's loop-erased random walks.

    Never enumerates the trees, so it works on the 4 x 4 lattice (100,352
    trees) at the cost of a few random walks.
    """
    n = graph.n_vertices
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(graph.edges):
        a, b = graph.vertex_index(u), graph.vertex_index(v)
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    in_tree = [False] * n
    in_tree[graph.root_index] = True
    step: list[tuple[int, int] | None] = [None] * n
    for start in range(n):
        u = start
        while not in_tree[u]:  # the walk's last exit from each vertex erases its loops
            step[u] = adj[u][int(rng.integers(len(adj[u])))]
            u = step[u][0]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = step[u][0]
    return SpanningTree(frozenset(step[v][1] for v in range(n) if v != graph.root_index))


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One sensor snapshot of a lattice feeder, with the tree that produced it."""

    graph: Graph
    placement: Placement
    model: LoadModel
    observation: np.ndarray
    true_tree: SpanningTree


def lattice_snapshot(graph: Graph, rng: np.random.Generator, sigma: float) -> Snapshot:
    """A fresh feeder instance and reading: placement, forecast, true tree and loads.

    Forecast means are uniform on [0.5, 1.5] with stddev ``sigma``; the true
    loads are one draw from that forecast, and the readings are the exact
    flows of the true tree at the sensors.
    """
    placement = random_placement(graph, rng)
    nodes = graph.load_vertices
    means = rng.uniform(0.5, 1.5, len(nodes))
    model = LoadModel(nodes, means, np.full(len(nodes), sigma**2))
    true_tree = uniform_spanning_tree(graph, rng)
    loads = means + sigma * rng.standard_normal(len(nodes))
    observation = hypothesis_flow(graph, true_tree, placement, loads)
    return Snapshot(graph, placement, model, observation, true_tree)


def write_island_files(workdir, means=None) -> dict[str, str]:
    """Write the island graph, a load file and the sweep placement for the CLI.

    ``means`` replaces the fixture's unit load means (stddevs stay zero; the
    CLI sets the noise from ``--sigma``/``--cv``).
    """
    fx = build_island_fixture()
    model = fx.load_model
    if means is not None:
        model = LoadModel(model.nodes, np.asarray(means, dtype=float), model.variances)
    paths = {
        "graph": os.path.join(workdir, "island.graph"),
        "loads": os.path.join(workdir, "island.loads"),
        "placement": os.path.join(workdir, "island.place"),
    }
    fileio.write_graph(fx.graph, paths["graph"])
    fileio.write_loads(model, paths["loads"])
    fileio.write_placement(ISLAND_PLACEMENT, paths["placement"])
    return paths
