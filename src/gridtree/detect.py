"""Tree detectors: deterministic decoding, exact likelihood search, the
zero-flow likelihood test, and two polynomial-time approximate searches.

All likelihood detectors share one Gaussian for rank-deficient hypothesis
covariances, ReducedGaussian: one Cholesky elimination in coordinate order
keeps a maximal full-rank coordinate subset that carries the density, and
every other coordinate must match its implied value (within a relative
tolerance), otherwise the hypothesis is assigned -inf.  One fixed-order
kernel computes that score from elementwise multiplies and adds only; a
single row runs it on Python floats and a batch on numpy columns, so a row
scores the same bits either way.  A HypothesisCache memoizes, per (graph,
placement, model), the hypothesis set, each tree's Gaussians and its cycle
basis; every likelihood detector takes one as an optional ``cache``, which
must have been built for the detector's own graph, placement and model.

``detect_map``, ``detect_cycle_descent`` and ``local_map_search`` never
build or score a tree that lacks a sensor-support edge, which leaves every
result unchanged; ``_sensor_support`` states why.

``DETECTORS`` is the one registry of detectors by name, used by the CLI and
the Monte Carlo sweep alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    GridTreeError,
    InconsistentObservationError,
    InvalidPlacementError,
    ModelError,
    NoFeasibleHypothesisError,
    UnsupportedPlacementError,
)
from .flows import (
    LoadModel,
    _solve_unmeasured,
    hypothesis_flow_distribution,
    relaxed_flow_solution,
    tree_edge_flows,
)
from .graph import (
    Graph,
    SpanningTree,
    circuit_rank,
    enumerate_spanning_trees,
    is_spanning_tree,
    max_weight_spanning_tree,
)
from .cycles import fundamental_cycle_basis
from .placement import Placement, is_valid_placement

_NEG_INF = float("-inf")
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, slots=True)
class DetectionResult:
    """Detector output: the chosen tree plus run diagnostics."""

    tree: SpanningTree
    log_likelihood: float
    method: str
    iterations: int = 1
    pruned: int = 0
    converged: bool = True

    def csv_row(self) -> list:
        return [
            self.method,
            self.tree.label(),
            f"{self.log_likelihood:.12g}",
            self.iterations,
            self.converged,
        ]


class ReducedGaussian:
    """Gaussian with possibly singular covariance, evaluated on independent coords.

    One Cholesky elimination in ascending coordinate index keeps each
    coordinate whose residual pivot exceeds ``1e-12 * trace(cov)``; the kept
    rows of the factor give the log-determinant and the lower-triangular
    whitening factor.  Every skipped coordinate is an affine function of the
    kept ones and is consistency-checked at evaluation time.  Pivoting on the
    largest diagonal would keep a different subset and change every score.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        mean = np.asarray(mean, dtype=float)
        m = len(mean)
        A = np.array(cov, dtype=float)  # residual of the elimination; cov stays as given
        guard = 1e-12 * float(np.trace(A))
        L = np.zeros((m, m))
        keep: list[int] = []
        for j in range(m):
            if A[j, j] > guard:  # variance of j left over by the kept coordinates before it
                L[j:, j] = A[j:, j] / np.sqrt(A[j, j])
                A[j:, j:] -= np.outer(L[j:, j], L[j:, j])
                keep.append(j)
        L = L[:, keep]  # the Cholesky factor: cov = L @ L.T up to the guard
        self.mean = mean
        self.keep = np.array(keep, dtype=int)
        self.dep = np.array([j for j in range(m) if j not in keep], dtype=int)
        self.rank = len(keep)
        mean_list = mean.tolist()
        # consistency tolerance: 1e-9 * max(tol_scale, max |value| of the observation)
        self.tol_scale = max([1.0, *map(abs, mean_list)])
        # with nothing kept (zero covariance) these are empty arrays of the right shapes
        L_keep = L[self.keep]
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(L_keep))))
        whiten = np.linalg.inv(L_keep)  # lower triangular, as L_keep is
        dep_coef = L[self.dep] @ whiten
        dep_offset = mean[self.dep] - dep_coef @ mean[self.keep]
        # the factors as the Python rows _kernel reads
        self._centre = [(a, mean_list[a]) for a in keep]
        self._whiten = [row[: i + 1] for i, row in enumerate(whiten.tolist())]
        self._implied = [
            (j, off, list(zip(keep, coef)))
            for j, off, coef in zip(self.dep.tolist(), dep_offset.tolist(), dep_coef.tolist())
        ]

    def _kernel(self, v, ok, maximum):
        """``(ok, score)`` of one row (``v`` floats, ``maximum`` max) or of many
        (``v`` numpy columns, ``maximum`` np.maximum); ``ok`` is False where a
        dependent coordinate misses its implied value by more than
        ``1e-9 * max(tol_scale, max |v|)``.  Only elementwise multiplies and
        adds run, in one fixed order, so a row scores the same bits alone or in
        a batch; rank 0 scores +0.0.
        """
        scale = self.tol_scale
        for x in v:
            scale = maximum(scale, abs(x))
        tol = 1e-9 * scale
        for j, implied, coefs in self._implied:
            for a, c in coefs:
                implied = implied + c * v[a]
            ok = ok & (abs(v[j] - implied) <= tol)
        d = [v[a] - mu for a, mu in self._centre]
        quad = 0.0
        for row in self._whiten:
            z = 0.0
            for w, da in zip(row, d):
                z = z + w * da
            quad = quad + z * z
        return ok, 0.0 - 0.5 * ((self.rank * _LOG_2PI + self.logdet) + quad)

    def logpdf(self, values: Sequence[float]) -> float:
        ok, score = self._kernel(np.asarray(values, dtype=float).tolist(), True, max)
        return score if ok else _NEG_INF

    def logpdf_batch(self, values: np.ndarray) -> np.ndarray:
        V = np.asarray(values, dtype=float)
        cols = list(np.ascontiguousarray(V.T))
        ok, score = self._kernel(cols, np.ones(len(V), dtype=bool), np.maximum)
        return np.where(ok, score, _NEG_INF)


class HypothesisCache:
    """Per-(graph, placement, model) memo of hypothesis sets, distributions and bases."""

    def __init__(self, graph: Graph, placement: Placement, model: LoadModel):
        # the checks of the first Gaussian build, made here because a pruned
        # detection may build none
        model.check_graph(graph)
        for eid in placement.edge_ids:
            graph.check_edge(eid)
        self.graph = graph
        self.placement = placement
        self.model = model
        self._hypotheses: dict[frozenset, list[SpanningTree]] = {}
        self._gaussians: dict[frozenset, ReducedGaussian] = {}
        self._zero_flow: dict[frozenset, tuple[list[int], ReducedGaussian]] = {}
        self._J: np.ndarray | None = None
        self._bases: dict[frozenset, object] = {}

    def hypotheses(self, restriction: Iterable[int] = ()) -> list[SpanningTree]:
        """Every spanning tree containing ``restriction``, in enumeration order."""
        key = frozenset(restriction)
        if key not in self._hypotheses:
            self._hypotheses[key] = list(enumerate_spanning_trees(self.graph, key))
        return self._hypotheses[key]

    def gaussian(self, tree: SpanningTree) -> ReducedGaussian:
        key = tree.edge_ids
        if key not in self._gaussians:
            dist = hypothesis_flow_distribution(self.graph, tree, self.placement, self.model)
            self._gaussians[key] = ReducedGaussian(dist.mean, dist.covariance)
        return self._gaussians[key]

    def loglik(self, tree: SpanningTree, observation: Sequence[float]) -> float:
        return self.gaussian(tree).logpdf(observation)

    def zero_flow(self, tree: SpanningTree) -> tuple[list[int], ReducedGaussian]:
        """Co-tree edge ids and Gaussian of ``tree``'s zero-flow statistic."""
        key = tree.edge_ids
        if key not in self._zero_flow:
            if self._J is None:  # zero_flow_transform, computed on first use
                self._J = zero_flow_transform(self.graph, self.placement)
            stat = zero_flow_statistic(self.graph, self.placement, self.model, tree, J=self._J)
            self._zero_flow[key] = (list(stat.indices), ReducedGaussian(stat.mean, stat.covariance))
        return self._zero_flow[key]

    def basis(self, tree: SpanningTree):
        key = tree.edge_ids
        if key not in self._bases:
            self._bases[key] = fundamental_cycle_basis(self.graph, tree)
        return self._bases[key]


def _finite(values: Sequence[float], what: str) -> np.ndarray:
    """``values`` as a float array; ModelError if any entry is NaN or infinite."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ModelError(f"{what} must be finite")
    return v


def _observation_and_cache(graph, placement, model, observation, cache):
    """``observation`` checked by ``_finite``, and ``cache`` or a new HypothesisCache;
    ModelError if ``cache`` was built for another graph, placement or model."""
    if cache is None:
        cache = HypothesisCache(graph, placement, model)
    elif cache.graph is not graph or cache.placement != placement or cache.model is not model:
        raise ModelError("cache was built for another graph, placement or model")
    return _finite(observation, "observation"), cache


def _sensor_support(placement: Placement, model: LoadModel, observation: np.ndarray) -> frozenset:
    """Sensor edges whose reading rules out every tree that lacks them.

    The threshold is ``1e-9 * max(1, 2 * sum|mu|, max|s|)``.  Every entry of an
    observation matrix is 0 or +-1, so every hypothesis mean entry satisfies
    |mean_T| <= sum|mu|; the factor 2 absorbs its rounding.  The threshold is
    therefore at least ReducedGaussian's consistency tolerance
    ``1e-9 * max(tol_scale, max|s|)`` for every tree.  A tree without sensor
    edge e has an all-zero row for e: zero mean, zero variance, so e is always
    a dependent coordinate whose implied value is exactly 0, and a reading on
    e above the threshold makes that tree's log-likelihood -inf.

    So ``detect_map`` and ``local_map_search`` may skip such trees, and
    ``detect_cycle_descent`` never removes a support edge: its start tree
    (``feasible_tree``, whose zero tolerance is lower) holds every one, and a
    -inf candidate never beats the current likelihood.
    """
    if len(observation) != len(placement.edge_ids):  # the error relaxed_flow_solution raises
        raise InvalidPlacementError("one observation per sensor required")
    scale = max(
        1.0,
        2.0 * float(np.sum(np.abs(model.means))),
        float(np.max(np.abs(observation), initial=0.0)),
    )
    threshold = 1e-9 * scale
    return frozenset(eid for eid, v in zip(placement.edge_ids, observation) if abs(v) > threshold)


def log_likelihood(
    graph: Graph,
    tree: SpanningTree,
    placement: Placement,
    model: LoadModel,
    observation: Sequence[float],
) -> float:
    """Gaussian log-density of the observation under one hypothesized tree."""
    return HypothesisCache(graph, placement, model).loglik(tree, observation)


# -- deterministic decoding ----------------------------------------------------


def detect_deterministic(
    graph: Graph,
    placement: Placement,
    loads: Sequence[float],
    observation: Sequence[float],
    required_edges: Iterable[int] = (),
) -> DetectionResult:
    """Decode the operating tree from exact loads by one linear solve.

    The relaxed flow puts nonzero flow exactly on the loaded edges of the
    operating tree, so its support plus any mandatory edges (edges present in
    every admissible configuration, e.g. the root feeds of an island graph,
    which carry no flow when their feeder serves no island) is the answer.
    Anything else means the observation cannot come from these loads.
    """
    if not is_valid_placement(graph, placement):
        raise InvalidPlacementError("deterministic decoding needs a valid placement")
    x = _finite(loads, "loads")
    f = relaxed_flow_solution(graph, placement, x, _finite(observation, "observation"))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(x), initial=0.0)))
    support = {e for e in range(graph.n_edges) if abs(f[e]) > tol}
    for eid in required_edges:
        graph.check_edge(eid)
        support.add(eid)
    if not is_spanning_tree(graph, support):
        raise InconsistentObservationError(
            f"flow support of size {len(support)} is not a spanning tree; "
            "observation inconsistent with the given loads"
        )
    return DetectionResult(
        tree=SpanningTree(frozenset(support)),
        log_likelihood=0.0,
        method="deterministic",
    )


def detect_enumeration_oracle(
    graph: Graph,
    placement: Placement,
    loads: Sequence[float],
    observation: Sequence[float],
    restriction: Iterable[int] = (),
) -> tuple[SpanningTree, ...]:
    """Every tree whose exact readings match the observation; brute force."""
    x = _finite(loads, "loads")
    s = _finite(observation, "observation")
    tol = 1e-9 * max(1.0, float(np.max(np.abs(x), initial=0.0)), float(np.max(np.abs(s), initial=0.0)))
    cols = list(placement.edge_ids)
    hits = []
    for tree in enumerate_spanning_trees(graph, restriction):
        cand = tree_edge_flows(graph, tree, x)[cols] if cols else np.zeros(0)
        if not cols or np.max(np.abs(cand - s)) <= tol:
            hits.append(tree)
    return tuple(hits)


# -- exact likelihood search ----------------------------------------------------


def detect_map(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    observation: Sequence[float],
    restriction: Iterable[int] = (),
    hypotheses: Sequence[SpanningTree] | None = None,
    cache: HypothesisCache | None = None,
) -> DetectionResult:
    """Most likely tree by exhaustive search over the hypothesis set.

    Ties break toward the lexicographically smallest sorted edge tuple, which
    is the enumeration order.  Raises if every hypothesis is impossible.
    A tree lacking a sensor-support edge scores -inf without its Gaussian
    being built, and still counts in ``iterations`` and ``pruned``; see
    ``_sensor_support`` for why that is its exact score.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    if hypotheses is None:
        hypotheses = cache.hypotheses(restriction)
    support = _sensor_support(placement, model, observation)

    def score(tree):
        if not support <= tree.edge_ids:
            return _NEG_INF
        return cache.loglik(tree, observation)

    return _most_likely(hypotheses, score, "map")


def _most_likely(hypotheses, score, method: str) -> DetectionResult:
    """The first hypothesis of highest ``score(tree)``; -inf scores count as pruned.

    Raises if every hypothesis is impossible.
    """
    best_tree, best_ll, n, pruned = None, _NEG_INF, 0, 0
    for tree in hypotheses:
        ll = score(tree)
        n += 1
        if ll == _NEG_INF:
            pruned += 1
        elif best_tree is None or ll > best_ll:
            best_tree, best_ll = tree, ll
    if best_tree is None:
        raise NoFeasibleHypothesisError("all hypotheses have zero likelihood")
    return DetectionResult(
        tree=best_tree,
        log_likelihood=best_ll,
        method=method,
        iterations=n,
        pruned=pruned,
    )


# -- zero-flow likelihood test ---------------------------------------------------


def zero_flow_transform(graph: Graph, placement: Placement) -> np.ndarray:
    """|E| x |M| sensitivity of the relaxed flow to the sensor readings.

    Column k is the signed indicator of the fundamental cycle that sensor k's
    edge closes against the unmeasured spanning tree; measured rows form an
    identity block.
    """
    measured, free, X = _solve_unmeasured(graph, placement, lambda Bm: Bm)
    J = np.zeros((graph.n_edges, len(measured)))
    J[free, :] = -X
    for k, eid in enumerate(measured):
        J[eid, k] = 1.0
    return J


@dataclass(frozen=True, eq=False)
class ZeroFlowStatistic:
    """Reduced statistic for one hypothesis: the co-tree entries of the
    forecast-based flow, which are zero-mean when the hypothesis is true."""

    indices: tuple[int, ...]
    mean: np.ndarray
    covariance: np.ndarray
    transform: np.ndarray  # maps sensor deviations to the selected entries

    def transform_determinant(self) -> float:
        return float(np.linalg.det(self.transform))


def zero_flow_statistic(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    tree: SpanningTree,
    J: np.ndarray | None = None,
) -> ZeroFlowStatistic:
    if J is None:
        J = zero_flow_transform(graph, placement)
    indices = tree.cotree(graph)
    H = J[list(indices), :]
    dist = hypothesis_flow_distribution(graph, tree, placement, model)
    cov = H @ dist.covariance @ H.T
    return ZeroFlowStatistic(
        indices=indices,
        mean=np.zeros(len(indices)),
        covariance=cov,
        transform=H,
    )


def detect_zero_flow_map(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    observation: Sequence[float],
    restriction: Iterable[int] = (),
    cache: HypothesisCache | None = None,
) -> DetectionResult:
    """Likelihood search on the unmeasured-edge residuals of one flow solve.

    Computes the relaxed flow once from the forecast loads, then scores each
    hypothesis by how plausibly its co-tree entries are zero.  Selects the
    same tree as detect_map for minimal valid placements.  ``cache`` is
    optional; pass one to reuse the statistics' Gaussians across calls.
    """
    mu = circuit_rank(graph)
    if len(placement.edge_ids) != mu:
        raise UnsupportedPlacementError(
            f"zero-flow test needs exactly {mu} sensors, got {len(placement.edge_ids)}"
        )
    if not is_valid_placement(graph, placement):
        raise InvalidPlacementError("zero-flow test needs a valid placement")
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    f_o = relaxed_flow_solution(graph, placement, model.means, observation)

    def score(tree):
        indices, rg = cache.zero_flow(tree)
        return rg.logpdf(f_o[indices])

    return _most_likely(cache.hypotheses(restriction), score, "zeroflow")


# -- flow-weighted spanning tree -------------------------------------------------


def detect_fmst(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    observation: Sequence[float],
    required_edges: Iterable[int] = (),
    cache: HypothesisCache | None = None,
) -> DetectionResult:
    """Two-step approximation: relaxed flow from forecasts, then the spanning
    tree carrying the largest total |flow| (greedy, ties by edge id).

    The chosen tree is scored by its Gaussian log-likelihood.  ``cache`` is
    optional; pass one to reuse hypothesis Gaussians across calls.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    f_o = relaxed_flow_solution(graph, placement, model.means, observation)
    tree = max_weight_spanning_tree(graph, np.abs(f_o), required_edges)
    ll = cache.loglik(tree, observation)
    return DetectionResult(tree=tree, log_likelihood=ll, method="fmst")


# -- cycle descent ----------------------------------------------------------------


def feasible_tree(
    graph: Graph,
    observation: Sequence[float],
    placement: Placement,
    zero_tol: float | None = None,
    required_edges: Iterable[int] = (),
) -> SpanningTree:
    """A spanning tree matching the observed zero pattern of the sensors.

    Every sensor edge with a nonzero reading must be in the tree, every
    sensor edge reading zero must be out.  Achieved by a max-weight spanning
    tree with weights |E| for nonzero-measured edges, 1 for unmeasured edges
    and 0 for zero-measured edges; if even that tree violates the pattern, no
    tree satisfies it and the observation is inconsistent.
    """
    s = np.asarray(observation, dtype=float)
    if zero_tol is None:
        zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(s), initial=0.0)))
    required = frozenset(required_edges)
    weights = np.ones(graph.n_edges)
    nonzero, zero = [], []
    for k, eid in enumerate(placement.edge_ids):
        graph.check_edge(eid)
        if abs(s[k]) > zero_tol:
            weights[eid] = float(graph.n_edges)
            nonzero.append(eid)
        else:
            if eid in required:
                raise InconsistentObservationError(
                    "a mandatory edge measured zero flow; no admissible tree matches"
                )
            weights[eid] = 0.0
            zero.append(eid)
    tree = max_weight_spanning_tree(graph, weights, required)
    if any(e not in tree.edge_ids for e in nonzero) or any(e in tree.edge_ids for e in zero):
        raise InconsistentObservationError(
            "no spanning tree matches the observed zero/nonzero sensor pattern"
        )
    return tree


def detect_cycle_descent(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    observation: Sequence[float],
    max_sweeps: int | None = None,
    cache: HypothesisCache | None = None,
    required_edges: Iterable[int] = (),
) -> DetectionResult:
    """Greedy likelihood ascent over single-edge exchanges along fundamental cycles.

    Starts from a tree matching the observed zero pattern, then repeatedly
    sweeps the fundamental cycles of the current tree, taking the best
    improving exchange on each; stops when a full sweep improves nothing.
    Exchanges never remove a ``required_edges`` member, so a search seeded
    inside the admissible configuration set stays inside it.  The
    accepted-move likelihood sequence is nondecreasing by construction.
    Exchanges never remove a sensor-support edge either, which changes
    nothing; see ``_sensor_support`` for why.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    required = frozenset(required_edges)
    support = _sensor_support(placement, model, observation)
    mu = max(circuit_rank(graph), 1)
    if max_sweeps is None:
        max_sweeps = 100 * mu
    tree = feasible_tree(graph, observation, placement, required_edges=required)
    cur_ll = cache.loglik(tree, observation)
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for slot in range(mu):
            basis = cache.basis(tree)
            if slot >= len(basis.generators):
                break
            gen = basis.generators[slot]
            cyc = basis.cycles[slot]
            best_ll = cur_ll
            best_tree = None
            for out in sorted(cyc.edges - {gen} - required - support):
                cand = SpanningTree((tree.edge_ids - {out}) | {gen})
                ll = cache.loglik(cand, observation)
                if ll > best_ll:
                    best_ll, best_tree = ll, cand
            if best_tree is not None:
                tree, cur_ll = best_tree, best_ll
                improved = True
        if not improved:
            converged = True
            break
    return DetectionResult(
        tree=tree,
        log_likelihood=cur_ll,
        method="cycledescent",
        iterations=sweeps,
        converged=converged,
    )


# -- local neighborhood search ------------------------------------------------------


def local_map_search(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    observation: Sequence[float],
    seed_tree: SpanningTree,
    cache: HypothesisCache | None = None,
    required_edges: Iterable[int] = (),
) -> DetectionResult:
    """Best tree among the seed and its basis-preserving single exchanges.

    The neighborhood consists of trees sharing the seed's fundamental cycle
    basis: swap the generator of a cycle with another edge of that cycle that
    lies on no other basis cycle.  Neighborhood size is at most the sum of
    (cycle length - 1) over the basis, and ``iterations`` counts it in full;
    the seed and candidates lacking a sensor-support edge are not scored,
    since they would score -inf (see ``_sensor_support``).
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    required = frozenset(required_edges)
    support = _sensor_support(placement, model, observation)
    basis = cache.basis(seed_tree)
    candidates: list[SpanningTree] = []
    for k, (gen, cyc) in enumerate(zip(basis.generators, basis.cycles)):
        others = set().union(*(c.edges for j, c in enumerate(basis.cycles) if j != k))
        for out in sorted(cyc.edges - {gen} - required - others):
            candidates.append(SpanningTree((seed_tree.edge_ids - {out}) | {gen}))
    best_tree = seed_tree
    best_ll = cache.loglik(seed_tree, observation) if support <= seed_tree.edge_ids else _NEG_INF
    for cand in candidates:
        if not support <= cand.edge_ids:
            continue
        ll = cache.loglik(cand, observation)
        if ll > best_ll:
            best_tree, best_ll = cand, ll
    return DetectionResult(
        tree=best_tree,
        log_likelihood=best_ll,
        method="local",
        iterations=1 + len(candidates),
    )


# -- registry ----------------------------------------------------------------------


def _enumeration_single(graph, placement, model, observation, restriction, cache):
    hits = detect_enumeration_oracle(graph, placement, model.means, observation, restriction)
    if len(hits) != 1:
        raise GridTreeError(f"enumeration oracle returned {len(hits)} trees")
    return DetectionResult(tree=hits[0], log_likelihood=0.0, method="enum")


#: name -> callable(graph, placement, model, observation, restriction, cache)
#: returning a DetectionResult; ``cache`` may be None.  Each entry looks its
#: detector up by module-global name when called, so rebinding a detector
#: (as an instrumenting wrapper does) also reaches the calls made here.
DETECTORS = {
    "deterministic": lambda g, p, m, s, r, c: detect_deterministic(g, p, m.means, s, r),
    "enum": _enumeration_single,
    "map": lambda g, p, m, s, r, c: detect_map(g, p, m, s, r, cache=c),
    "zeroflow": lambda g, p, m, s, r, c: detect_zero_flow_map(g, p, m, s, r, cache=c),
    "fmst": lambda g, p, m, s, r, c: detect_fmst(g, p, m, s, r, cache=c),
    "cycledescent": lambda g, p, m, s, r, c: detect_cycle_descent(
        g, p, m, s, cache=c, required_edges=r
    ),
}
DETECTOR_NAMES = tuple(DETECTORS)
