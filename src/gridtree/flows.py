"""Load model, observation matrices, and network-flow linear algebra.

Sign convention: a measured value is positive when power flows along the
edge's reference direction (tail -> head).  The consumption vector is
``y = [sum(x) at the root, -x at load vertices, 0 elsewhere]`` so that the
incidence system ``B f = y`` balances production against consumption.

Tree quantities come from one rooting, ``graph.root_tree``: observation
matrices walk up from each load vertex to the root, and edge flows add
subtree loads in reverse DFS pop order, children before parents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import InvalidPlacementError, ModelError
from .graph import Graph, SpanningTree, _finite, root_tree
from .placement import Placement


@dataclass(frozen=True, eq=False)
class LoadModel:
    """Per-node forecast mean and independent error variance (diagonal covariance)."""

    nodes: tuple[Hashable, ...]
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _finite(self.means, "means/variances"))
        object.__setattr__(self, "variances", _finite(self.variances, "means/variances"))
        if self.means.shape != (len(self.nodes),) or self.variances.shape != (len(self.nodes),):
            raise ModelError("means/variances must have one entry per node")
        if np.any(self.variances < 0):
            raise ModelError("negative variance")

    @property
    def stddevs(self) -> np.ndarray:
        return np.sqrt(self.variances)

    def with_stddev(self, sigma: float) -> "LoadModel":
        """Same means, one absolute standard deviation for every node."""
        if sigma < 0:
            raise ModelError("negative standard deviation")
        return LoadModel(self.nodes, self.means, np.full(len(self.nodes), sigma**2))

    def with_cv(self, cv_percent: float) -> "LoadModel":
        """Same means, per-node standard deviation = (cv_percent/100) * mean."""
        if cv_percent < 0:
            raise ModelError("negative coefficient of variation")
        sd = np.abs(self.means) * (cv_percent / 100.0)
        return LoadModel(self.nodes, self.means, sd**2)

    def check_graph(self, graph: Graph) -> None:
        if tuple(self.nodes) != tuple(graph.load_vertices):
            raise ModelError("load model nodes must match the graph's load vertices in order")


def _loads(graph: Graph, loads: Sequence[float]) -> np.ndarray:
    """``loads`` as a float array; ModelError unless finite, one per load vertex."""
    x = _finite(loads, "loads")
    if x.shape != (len(graph.load_vertices),):
        raise ModelError("one load per load vertex required")
    return x


def consumption_vector(graph: Graph, loads: Sequence[float]) -> np.ndarray:
    """Net injection per vertex: total at the root, -load at load vertices; sums to zero.
    ModelError unless the loads are finite, one per load vertex."""
    return _consumption(graph, _loads(graph, loads))


def _consumption(graph: Graph, x: np.ndarray) -> np.ndarray:
    """``consumption_vector`` of loads already checked by ``_loads``."""
    y = np.zeros(graph.n_vertices)
    for v, xv in zip(graph.load_vertices, x):
        y[graph.vertex_index(v)] = -xv
    y[graph.root_index] = x.sum()
    return y


# -- observation matrices ----------------------------------------------------


def observation_matrix(graph: Graph, tree: SpanningTree, placement: Placement) -> np.ndarray:
    """|M| x |load_vertices| matrix mapping loads to measured flows under a tree.

    Entry (k, j) is +1 when load j sits strictly downstream of sensor k and
    the reference direction points away from the root, -1 when it points
    toward the root, 0 otherwise.  Sensors on unused (co-tree) edges give
    all-zero rows.
    """
    graph.check_edges(placement.edge_ids)
    parent, _, _ = root_tree(graph, tree)
    row_of = {eid: k for k, eid in enumerate(placement.edge_ids)}
    gamma = np.zeros((len(placement.edge_ids), len(graph.load_vertices)))
    for j, v in enumerate(graph.load_vertices):
        up, eid = parent[v]
        while up is not None:  # every edge on the path from v up to the root
            k = row_of.get(eid)
            if k is not None:
                gamma[k, j] = 1.0 if graph.edges[eid][1] == v else -1.0
            v = up
            up, eid = parent[v]
    return gamma


def observation_matrix_from_incidence(
    graph: Graph, tree: SpanningTree, placement: Placement
) -> np.ndarray:
    """Same matrix computed by inverting the reduced tree incidence system.

    Solves B_w^r f = y^r for the tree-edge flows and reads off the rows of
    the inverse at the measured edges; kept as an independent route for
    cross-checking the traversal construction.  UnknownEdgeError for a
    sensor id that is not an edge, as ``observation_matrix`` raises.
    """
    graph.check_edges(placement.edge_ids)
    tree_cols = sorted(tree.edge_ids)
    Bw = graph.reduced_incidence[:, tree_cols]
    inv = np.linalg.inv(Bw)
    col_of = {e: i for i, e in enumerate(tree_cols)}
    non_root = [v for v in graph.vertices if v != graph.root]
    load_col = [non_root.index(v) for v in graph.load_vertices]
    gamma = np.zeros((len(placement.edge_ids), len(graph.load_vertices)))
    for k, eid in enumerate(placement.edge_ids):
        if eid in col_of:
            gamma[k] = -inv[col_of[eid], load_col]
    return gamma


def hypothesis_flow(
    graph: Graph, tree: SpanningTree, placement: Placement, loads: Sequence[float]
) -> np.ndarray:
    """Exact sensor readings for a hypothesized tree: downstream load sums, signed.
    ModelError unless the loads are finite, one per load vertex; UnknownEdgeError
    or NotASpanningTreeError for a sensor or tree that does not fit the graph."""
    x = _loads(graph, loads)
    return observation_matrix(graph, tree, placement) @ x


def tree_edge_flows(graph: Graph, tree: SpanningTree, loads: Sequence[float]) -> np.ndarray:
    """Signed flow on every edge of the graph under a tree (zero on co-tree edges).
    ModelError unless the loads are finite, one per load vertex; UnknownEdgeError
    or NotASpanningTreeError for a tree that does not fit the graph."""
    return _edge_flows(graph, tree, _loads(graph, loads))


def _edge_flows(graph: Graph, tree: SpanningTree, x: np.ndarray) -> np.ndarray:
    """``tree_edge_flows`` of loads already checked by ``_loads``."""
    load_of = dict(zip(graph.load_vertices, x))
    parent, _, order = root_tree(graph, tree)
    subtree = {v: load_of.get(v, 0.0) for v in graph.vertices}
    flows = np.zeros(graph.n_edges)
    for v in reversed(order):  # children before parents
        up, eid = parent[v]
        if up is None:
            continue
        subtree[up] += subtree[v]
        flows[eid] = subtree[v] if graph.edges[eid][1] == v else -subtree[v]
    return flows


# -- relaxed flow solution ----------------------------------------------------


def relaxed_flow_solution(
    graph: Graph,
    placement: Placement,
    loads: Sequence[float],
    observation: Sequence[float],
) -> np.ndarray:
    """Unique flow on the whole graph consistent with loads and sensor readings.

    Pins the measured edges to the observed values and solves the remaining
    square (|V|-1) conservation system for the unmeasured edges, the one
    solve of it in the package.  The system is invertible exactly when the
    placement is valid; its support encodes the operating tree when the
    observation is consistent.

    ``observation`` may also be a block, one row per observation, giving one
    flow row each.  Every row is solved as its own one-column system, so a
    row gets the same bits alone or in a block (a multi-column solve would
    not).  UnknownEdgeError for a sensor id that is not an edge; ModelError
    unless the readings and the loads are finite, one load per load vertex;
    InvalidPlacementError unless there is one reading per sensor and the
    free edges form a spanning tree.
    """
    graph.check_edges(placement.edge_ids)
    s = _finite(observation, "observation")
    if s.ndim not in (1, 2) or s.shape[-1] != len(placement.edge_ids):
        raise InvalidPlacementError("one observation per sensor required")
    f = _relaxed_flow(graph, placement, _loads(graph, loads), np.atleast_2d(s))
    return f if s.ndim == 2 else f[0]


def _relaxed_flow(graph: Graph, placement: Placement, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``relaxed_flow_solution`` of a block ``rows``, one flow row each, on
    inputs already checked: sensor ids that are edges, loads ``x`` as
    ``_loads`` checks them (a LoadModel's means fit its cache's graph) and
    finite readings, one per sensor.  Only the placement's validity is
    checked here."""
    measured = list(placement.edge_ids)
    free = [e for e in range(graph.n_edges) if e not in placement.edge_set]
    if len(free) != graph.n_vertices - 1:
        raise InvalidPlacementError("placement does not leave |V|-1 unmeasured edges")
    Br = graph.reduced_incidence
    y = np.delete(_consumption(graph, x), graph.root_index)
    try:  # per row: the consumption, less the measured flows
        f_free = np.linalg.solve(Br[:, free], y[:, None] - Br[:, measured] @ rows[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise InvalidPlacementError("unmeasured edges do not form a spanning tree") from exc
    f = np.zeros((len(rows), graph.n_edges))
    f[:, free] = f_free[:, :, 0]
    f[:, measured] = rows
    return f


# -- hypothesis flow distribution ---------------------------------------------


def hypothesis_flow_distribution(
    graph: Graph, tree: SpanningTree, placement: Placement, model: LoadModel
) -> tuple[np.ndarray, np.ndarray]:
    """The pair (mean, covariance) of the sensor vector's Gaussian law under one
    hypothesized tree: forecast readings and Gamma diag(var) Gamma^T.  ModelError,
    UnknownEdgeError or NotASpanningTreeError for a model, sensor or tree that
    does not fit the graph."""
    model.check_graph(graph)
    gamma = observation_matrix(graph, tree, placement)
    return gamma @ model.means, (gamma * model.variances) @ gamma.T


def cv_scaling(aggregate_kw: float) -> float:
    """Forecast-error coefficient of variation (percent) vs. aggregate power.

    Decreases with aggregation and saturates at sqrt(41.9) ~ 6.47 percent.
    """
    if not 0 < aggregate_kw < math.inf:
        raise ModelError("aggregate power must be positive and finite")
    return math.sqrt(3562.0 / aggregate_kw + 41.9)
