"""Tree detectors: deterministic decoding, exact likelihood search, the
zero-flow likelihood test, and two polynomial-time approximate searches.

All likelihood detectors share one Gaussian for rank-deficient hypothesis
covariances, ReducedGaussian: one Cholesky elimination in coordinate order
keeps a maximal full-rank coordinate subset that carries the density, and
every other coordinate must match its implied value (within a relative
tolerance), otherwise the hypothesis is assigned -inf.  One fixed-order
kernel computes that score from elementwise multiplies and adds only; a
single row, or a batch under ``_PYTHON_ROWS`` rows, runs it on Python
floats and a larger batch on numpy columns, so a row scores the same bits
either way.  A HypothesisCache memoizes, per (graph, placement, model), the
hypothesis sets, each tree's Gaussians and its cycle basis; every likelihood
detector takes one as an optional ``cache``, which must have been built for
the detector's own graph, placement and model.  ``HypothesisCache.gaussians``
factors the Gaussians a call needs as one stack (``_factorise``), a Gaussian
built alone being a stack of one; its factors have the same bits either way.

A HypothesisBank numbers trees and scores them on a block of readings, one
row per observation.  Cycle descent and the local search are both
single-edge-exchange walks over its neighbour rows, which it makes only
for the (tree, slot) pairs a walk asks for: each move is one ``_step``,
the first best of a tree and its neighbours along one basis cycle
(``_descent_walk``, once per slot and sweep) or along every cycle where
the exchange keeps the basis (``_local_walk``, once).  The walks run
on one row for ``detect_cycle_descent`` and ``local_map_search`` and on
every loaded row for the Monte Carlo sweep, a row without a tree (-1)
staying at -1.

``detect_map`` and the bank never build or score a tree that lacks a
sensor-support edge, which leaves every result unchanged;
``_sensor_support`` states why.  ``detect_map`` does not enumerate such
trees either: it enumerates the trees holding the restriction and the
support, and counts the others by the matrix-tree theorem.

Per-call and batch MAP (and ``detect_zero_flow_map``) pick with one
first-best rule, ``_first_best``; ``detect_fmst`` and its batch form share
``_fmst_trees``.  Per-call MAP scores a plain vector, not a one-row bank: on
warm-cache 3x3 and 4x4 lattice calls a bank over the same trees took 1.5 and
1.35 times as long, and raised a 4x4 call's traced peak memory about 4-fold.

``DETECTORS`` is the one registry of detectors by name, used by the CLI and
the Monte Carlo sweep alike; ``DETECTOR_BATCHES`` holds the batch forms the
sweep runs over a bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    GridTreeError,
    InconsistentObservationError,
    InfeasibleConstraintError,
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
    count_spanning_trees,
    enumerate_spanning_trees,
    is_spanning_tree,
    max_weight_spanning_tree,
)
from .cycles import fundamental_cycle_basis
from .placement import Placement, is_valid_placement

_NEG_INF = float("-inf")
_LOG_2PI = float(np.log(2.0 * np.pi))
#: Batches of fewer rows are scored one row at a time on Python floats: on
#: the island, one numpy column call (about 20 us) costs as much as 7-9 rows
#: on Python floats (2.3-3 us each).
_PYTHON_ROWS = 8


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
    ``factors`` are this pair's entry of ``_factorise``, which a stack of
    Gaussians is built from; without them the pair is factored alone.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray, factors: tuple | None = None):
        mean = np.asarray(mean, dtype=float)
        if factors is None:
            [factors] = _factorise(mean[None], np.asarray(cov, dtype=float)[None])
        keep, dep, self.logdet, whiten, dep_coef, dep_offset = factors
        self.keep, self.dep, self.rank = keep, dep, len(keep)
        mean_list = mean.tolist()
        # consistency tolerance: 1e-9 * max(tol_scale, max |value| of the observation)
        self.tol_scale = max([1.0, *map(abs, mean_list)])
        # the factors as the Python rows _kernel reads
        self._centre = [(a, mean_list[a]) for a in keep]
        self._whiten = [row[: i + 1] for i, row in enumerate(whiten)]
        self._implied = [(j, off, list(zip(keep, coef))) for j, off, coef in zip(dep, dep_offset, dep_coef)]

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
        if len(V) < _PYTHON_ROWS:  # the same bits as the numpy columns, only faster here
            scored = (self._kernel(row, True, max) for row in V.tolist())
            return np.array([score if ok else _NEG_INF for ok, score in scored], dtype=float)
        cols = list(np.ascontiguousarray(V.T))
        ok, score = self._kernel(cols, np.ones(len(V), dtype=bool), np.maximum)
        return np.where(ok, score, _NEG_INF)


def _factorise(means: np.ndarray, covs: np.ndarray) -> list[tuple]:
    """ReducedGaussian's factors of each (mean, covariance) pair of a stack
    (``means`` k x m, ``covs`` k x m x m), in stack order.

    The elimination runs per covariance on Python floats: the float
    operations of a numpy elimination, so the same bits, without its call
    overhead on these small matrices.  The rest runs once per rank, on the
    pairs of that rank stacked: the log-determinant, ``np.linalg.inv`` of
    the kept rows and the dependent coefficients.  A stacked numpy call
    makes each matrix's own call, so a pair gets the same factors in any
    stack, alone included.  Per pair: kept and dependent coordinates,
    log-determinant, whitening rows, and the dependent coordinates'
    coefficient rows and offsets, as lists.
    """
    guards = (1e-12 * covs.trace(axis1=1, axis2=2)).tolist()
    m = covs.shape[1]
    by_rank: dict[int, list] = {}
    for t, (a, guard, mean) in enumerate(zip(covs.tolist(), guards, means.tolist())):
        lower = [0.0] * (m * m)  # the Cholesky factor, row-major
        keep = []
        for j in range(m):
            if a[j][j] > guard:  # variance of j left over by the kept coordinates before it
                root = math.sqrt(a[j][j])
                col = [row[j] / root for row in a[j:]]
                for i in range(1, m - j):  # the residual's lower triangle, less col col^T
                    row, c = a[j + i], col[i]
                    for q in range(1, i + 1):
                        row[j + q] -= c * col[q]
                lower[j * (m + 1) :: m] = col  # column j, from row j down
                keep.append(j)
        order = keep + [j for j in range(m) if j not in keep]  # kept coordinates first
        kept_cols = [lower[i * m + j] for i in order for j in keep]
        by_rank.setdefault(len(keep), []).append((t, order, kept_cols, [mean[i] for i in order]))
    out = [()] * len(guards)
    for r, group in by_rank.items():
        ts, orders, kept_cols, centres = zip(*group)
        L = np.array(kept_cols, dtype=float).reshape(len(ts), m, r)
        centres = np.array(centres, dtype=float).reshape(len(ts), m, 1)
        L_keep = L[:, :r]
        logdet = 2.0 * np.log(L_keep.diagonal(0, 1, 2)).sum(axis=1)
        whiten = np.linalg.inv(L_keep)  # lower triangular, as L_keep is
        dep_coef = L[:, r:] @ whiten
        dep_offset = centres[:, r:, 0] - (dep_coef @ centres[:, :r])[:, :, 0]
        rows = zip(logdet.tolist(), whiten.tolist(), dep_coef.tolist(), dep_offset.tolist())
        for t, o, row in zip(ts, orders, rows):
            out[t] = (o[:r], o[r:], *row)
    return out


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

    def gaussians(self, trees: Sequence[SpanningTree]) -> list[ReducedGaussian]:
        """The Gaussian of each tree; those not built yet are factored as one stack."""
        todo = [t for t in dict.fromkeys(trees) if t.edge_ids not in self._gaussians]
        if todo:
            dists = [hypothesis_flow_distribution(self.graph, t, self.placement, self.model) for t in todo]
            means, covs = map(np.array, zip(*dists))
            for tree, (mean, cov), factors in zip(todo, dists, _factorise(means, covs)):
                self._gaussians[tree.edge_ids] = ReducedGaussian(mean, cov, factors)
        return [self._gaussians[t.edge_ids] for t in trees]

    def gaussian(self, tree: SpanningTree) -> ReducedGaussian:
        return self.gaussians([tree])[0]

    def loglik(self, tree: SpanningTree, observation: Sequence[float]) -> float:
        return self.gaussian(tree).logpdf(observation)

    def zero_flow(self, tree: SpanningTree) -> tuple[list[int], ReducedGaussian]:
        """Co-tree edge ids and Gaussian of ``tree``'s zero-flow statistic."""
        key = tree.edge_ids
        if key not in self._zero_flow:
            if self._J is None:  # zero_flow_transform, computed on first use
                self._J = zero_flow_transform(self.graph, self.placement)
            stat = zero_flow_statistic(self.graph, self.placement, self.model, tree, J=self._J)
            zero = np.zeros(len(stat.indices))
            self._zero_flow[key] = (list(stat.indices), ReducedGaussian(zero, stat.covariance))
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


def _observation(values: Sequence[float], placement: Placement) -> np.ndarray:
    """``values`` checked by ``_finite``; InvalidPlacementError unless one per sensor."""
    v = _finite(values, "observation")
    if v.shape != (len(placement.edge_ids),):
        raise InvalidPlacementError("one observation per sensor required")
    return v


def _observation_and_cache(graph, placement, model, observation, cache):
    """``observation`` checked by ``_observation``, and ``cache`` or a new HypothesisCache;
    ModelError if ``cache`` was built for another graph, placement or model."""
    if cache is None:
        cache = HypothesisCache(graph, placement, model)
    elif cache.graph is not graph or cache.placement != placement or cache.model is not model:
        raise ModelError("cache was built for another graph, placement or model")
    return _observation(observation, placement), cache


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

    So such trees score -inf unbuilt: ``detect_map`` counts them without
    enumerating them, and a HypothesisBank does not score them.  Cycle
    descent never leaves the trees holding the support: its start tree
    (``feasible_tree``, whose zero tolerance is lower) holds every support
    edge, and a -inf candidate never beats the current likelihood.
    """
    return frozenset(
        eid for eid, held in zip(placement.edge_ids, _support_mask(model, observation)) if held
    )


def _support_mask(model: LoadModel, readings: np.ndarray) -> np.ndarray:
    """True where a reading is a support reading by ``_sensor_support``'s
    threshold; ``readings`` is one observation or a block of them, one per row."""
    return _nonzero_pattern(readings, floor=max(1.0, 2.0 * float(np.abs(model.means).sum())))


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
    f = relaxed_flow_solution(graph, placement, x, _observation(observation, placement))
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
    s = _observation(observation, placement)
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
    cache: HypothesisCache | None = None,
) -> DetectionResult:
    """Most likely tree by exhaustive search over the trees holding ``restriction``.

    Ties go to the first hypothesis in enumeration order (the smallest
    sorted edge tuple).  Raises if every hypothesis is impossible.
    Only the trees holding the sensor support as well are enumerated, and
    their Gaussians built as one stack; every other tree scores -inf (see
    ``_sensor_support``) and is counted, not enumerated: ``iterations`` is
    the matrix-tree count of the trees holding ``restriction``, and those
    not enumerated count in ``pruned``.  Support edges are common to every
    enumerated tree, so they never decide which of two trees holds the
    smallest edge of their symmetric difference: the enumerated trees keep
    their order, and the first best is the same tree.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    restriction = frozenset(restriction)
    iterations = count_spanning_trees(graph, restriction)
    try:
        hypotheses = cache.hypotheses(restriction | _sensor_support(placement, model, observation))
    except InfeasibleConstraintError:  # the support closes a cycle: no tree holds it
        hypotheses = []
    scores = [g.logpdf(observation) for g in cache.gaussians(hypotheses)]
    return _most_likely(hypotheses, scores, "map", iterations)


def _first_best(scores: np.ndarray) -> np.ndarray:
    """Per column of ``scores`` (one row per hypothesis), the index of the first
    highest score, or -1 where every score is -inf or there is none."""
    if not len(scores):
        return np.full(scores.shape[1:], -1, dtype=np.intp)
    top = scores.max(axis=0)
    # argmax over a bool table, since argmax over axis 0 copies its input
    best = np.argmax(scores == top, axis=0)
    return np.where(top > _NEG_INF, best, -1)


def _most_likely(hypotheses: Sequence[SpanningTree], scores, method: str, iterations: int) -> DetectionResult:
    """The hypothesis ``_first_best`` picks from its ``scores``, out of
    ``iterations`` hypotheses; -inf scores and hypotheses not scored count as
    pruned.  Raises if every hypothesis is impossible."""
    scores = np.asarray(scores, dtype=float)
    best = int(_first_best(scores))
    if best < 0:
        raise NoFeasibleHypothesisError("all hypotheses have zero likelihood")
    return DetectionResult(
        tree=hypotheses[best],
        log_likelihood=float(scores[best]),
        method=method,
        iterations=iterations,
        pruned=iterations - len(scores) + int(np.count_nonzero(scores == _NEG_INF)),
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
    covariance: np.ndarray
    transform: np.ndarray  # maps sensor deviations to the selected entries

    def transform_determinant(self) -> float:
        return float(np.linalg.det(self.transform))


def zero_flow_statistic(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    tree: SpanningTree,
    J: np.ndarray,  # zero_flow_transform(graph, placement)
) -> ZeroFlowStatistic:
    indices = tree.cotree(graph)
    H = J[list(indices), :]
    _, cov = hypothesis_flow_distribution(graph, tree, placement, model)
    cov = H @ cov @ H.T
    return ZeroFlowStatistic(
        indices=indices,
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
    UnsupportedPlacementError unless |M| is the circuit rank; the flow solve
    raises InvalidPlacementError unless the unmeasured edges form a spanning tree.
    """
    mu = circuit_rank(graph)
    if len(placement.edge_ids) != mu:
        raise UnsupportedPlacementError(
            f"zero-flow test needs exactly {mu} sensors, got {len(placement.edge_ids)}"
        )
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    f_o = relaxed_flow_solution(graph, placement, model.means, observation)
    hypotheses = cache.hypotheses(restriction)
    scores = [rg.logpdf(f_o[indices]) for indices, rg in map(cache.zero_flow, hypotheses)]
    return _most_likely(hypotheses, scores, "zeroflow", len(hypotheses))


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
    [tree] = _fmst_trees(cache, observation[None], required_edges)
    return DetectionResult(tree=tree, log_likelihood=cache.loglik(tree, observation), method="fmst")


def _fmst_trees(cache: HypothesisCache, readings: np.ndarray, required_edges: Iterable[int]) -> list:
    """``detect_fmst``'s tree for each row of ``readings``: one block relaxed
    solve, then one greedy spanning tree per row.  Every error it raises (an
    invalid placement, cyclic or unknown required edges, a disconnected
    graph) holds for every row."""
    flows = relaxed_flow_solution(cache.graph, cache.placement, cache.model.means, readings)
    required = frozenset(required_edges)
    return [max_weight_spanning_tree(cache.graph, f, required) for f in np.abs(flows)]


# -- cycle descent ----------------------------------------------------------------


def feasible_tree(
    graph: Graph,
    observation: Sequence[float],
    placement: Placement,
    required_edges: Iterable[int] = (),
) -> SpanningTree:
    """A spanning tree matching the observed zero pattern of the sensors.

    Every sensor edge with a nonzero reading must be in the tree, every
    sensor edge reading zero must be out.  Achieved by a max-weight spanning
    tree with weights |E| for nonzero-measured edges, 1 for unmeasured edges
    and 0 for zero-measured edges; if even that tree violates the pattern, no
    tree satisfies it and the observation is inconsistent.  Zero is
    ``_nonzero_pattern``'s rule.
    """
    s = _observation(observation, placement)
    pattern = _nonzero_pattern(s)
    required = frozenset(required_edges)
    weights = np.ones(graph.n_edges)
    nonzero, zero = [], []
    for k, eid in enumerate(placement.edge_ids):
        graph.check_edge(eid)
        if pattern[k]:
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


def _nonzero_pattern(readings: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """The zero/nonzero pattern of each row of readings: nonzero above
    ``1e-9 * max(floor, max |s|)``.  ``feasible_tree`` reads it with floor 1,
    ``_support_mask`` with a higher floor."""
    size = np.abs(readings)
    return size > 1e-9 * np.maximum(floor, size.max(axis=-1, initial=0.0, keepdims=True))


def detect_cycle_descent(
    graph: Graph,
    placement: Placement,
    model: LoadModel,
    observation: Sequence[float],
    cache: HypothesisCache | None = None,
    required_edges: Iterable[int] = (),
) -> DetectionResult:
    """Greedy likelihood ascent over single-edge exchanges along fundamental cycles.

    Starts from a tree matching the observed zero pattern, then repeatedly
    sweeps the fundamental cycles of the current tree, taking the best
    improving exchange on each; stops when a full sweep improves nothing,
    or unconverged after ``100 * mu`` sweeps (mu the circuit rank).
    Exchanges never remove a ``required_edges`` member, so a search seeded
    inside the admissible configuration set stays inside it.  The
    accepted-move likelihood sequence is nondecreasing by construction.
    Exchanges never remove a sensor-support edge either, which changes
    nothing; see ``_sensor_support`` for why.  No tree is enumerated: the
    walk is ``_descent_walk`` on a one-row HypothesisBank, as in the sweep.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    required = frozenset(required_edges)
    fixed = required | _sensor_support(placement, model, observation)
    bank = HypothesisBank(cache, fixed, readings=observation[None])
    start = bank.number(feasible_tree(graph, observation, placement, required_edges=required))
    tree, ll, sweeps, converged = _descent_walk(bank, [start])
    return DetectionResult(
        tree=bank.trees[tree[0]],
        log_likelihood=float(ll[0]),
        method="cycledescent",
        iterations=int(sweeps[0]),
        converged=bool(converged[0]),
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
    since they would score -inf (see ``_sensor_support``).  The search is
    ``_local_walk`` on a one-row HypothesisBank, as in the sweep.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    bank = HypothesisBank(cache, required_edges, readings=observation[None])
    tree, ll, size = _local_walk(bank, [bank.number(seed_tree)])
    return DetectionResult(
        tree=bank.trees[tree[0]],
        log_likelihood=float(ll[0]),
        method="local",
        iterations=int(size[0]),
    )


# -- hypothesis bank ------------------------------------------------------------------


class HypothesisBank:
    """Numbered trees of one problem, their neighbours and their scores on a
    block of readings, one row per observation.

    A sweep group builds one bank from its HypothesisCache and hypothesis
    list, so tree j is hypothesis j, and loads each run of cells in turn.  A
    per-call detector builds one with no list and one row; trees are then
    numbered as its walk meets them, and nothing is enumerated.
    ``required_edges`` are the edges no exchange removes, and the restriction
    the starts and the row-by-row detectors get.

    A tree has ``mu + 1`` neighbour rows of tree numbers (``mu`` the circuit
    rank, at least 1), each the tree itself and then its exchanges, padded
    with -1.  Row ``k < mu`` holds the exchanges along basis cycle ``k`` in
    ``sorted(out)`` order (none past the last basis cycle), the candidates
    of cycle descent's slot ``k``; row ``mu`` holds the local search's
    neighbourhood, the exchanges that take out no edge shared by two basis
    cycles.  ``neighbours`` makes a row the first time a walk asks for it,
    so the rows held, ``|V|`` integers each, follow the (tree, slot) pairs
    asked for, not the trees numbered.  Number -1 reads a row of -1s: it
    stands for no tree, scores -inf and has no neighbours, so a walk from -1
    stays at -1.

    Per loaded row the bank keeps the sensor support (``_support_mask``).  A
    tree's score column is filled on first use, and only the rows whose
    support the tree holds are scored; every other row scores -inf, which
    ``_sensor_support`` shows is exact.  A tree holding the support edges of
    every row scores every row, and one lacking an edge that every row's
    support has scores none; only the trees between the two read the mask,
    so a one-row load never does.  Memory per loaded block is one float per
    (row, numbered tree), NaN until scored, and a spare last entry that
    number -1 reads.
    """

    def __init__(
        self,
        cache: HypothesisCache,
        required_edges: Iterable[int] = (),
        trees: Sequence[SpanningTree] = (),
        readings: np.ndarray | None = None,
    ):
        self.cache = cache
        self.required = frozenset(required_edges)
        graph = cache.graph
        # the circuit rank: a graph with a spanning tree is connected
        self.mu = max(graph.n_edges - graph.n_vertices + 1, 1)
        # a neighbour row is the tree and at most |V| - 1 exchanges: a
        # fundamental cycle has at most |V| edges, and the local-search
        # exchanges of one basis take out distinct tree edges
        self._width = max(graph.n_vertices, 2)
        self.trees: list[SpanningTree] = []
        self._numbers: dict[frozenset, int] = {}
        self._capacity = len(trees) or 64
        # per slot: the neighbour rows made so far, stacked, and the row of
        # each tree number; row 0, all -1, is number -1's
        self._hoods = [(np.full((1, self._width), -1, dtype=np.intp), {-1: 0}) for _ in range(self.mu + 1)]
        self._starts: dict[bytes, int] = {}
        if readings is None:
            readings = np.zeros((0, len(cache.placement.edge_ids)))
        self.load(readings)
        for tree in trees:
            self.number(tree)
        self.n_hypotheses = len(self.trees)

    def number(self, tree: SpanningTree) -> int:
        i = self._numbers.get(tree.edge_ids)
        if i is None:
            i = self._numbers[tree.edge_ids] = len(self.trees)
            self.trees.append(tree)
            if i == self._capacity:
                self._reserve(2 * i)
        return i

    def _reserve(self, capacity: int) -> None:
        scores = np.full((capacity + 1, len(self.readings)), np.nan)
        scores[: self._capacity] = self._scores[:-1]
        scores[-1] = _NEG_INF
        self._scores, self._capacity = scores, capacity

    def load(self, readings: np.ndarray) -> None:
        """Make ``readings`` (one row per observation) the block that is scored."""
        self.readings = np.asarray(readings, dtype=float)
        self._support = _support_mask(self.cache.model, self.readings)
        # the edges in some row's support and in every row's support
        sensors = self.cache.placement.edge_ids
        self._needed_by_some = frozenset(compress(sensors, self._support.any(axis=0)))
        self._needed_by_all = frozenset(compress(sensors, self._support.all(axis=0)))
        self._scores = None  # the last block's scores go before this block's are made
        self._scores = np.full((self._capacity + 1, len(self.readings)), np.nan)
        self._scores[-1] = _NEG_INF

    def _fill(self, ids) -> None:
        sensors = self.cache.placement.edge_ids
        held = {}  # tree number -> the rows whose support it holds, if any
        for i in ids:
            edges = self.trees[i].edge_ids
            self._scores[i] = _NEG_INF
            if self._needed_by_some <= edges:  # holds every row's support
                held[i] = slice(None)
            elif self._needed_by_all <= edges:  # some rows may be held: ask the mask
                lacking = [k for k, eid in enumerate(sensors) if eid not in edges]
                holds = ~self._support[:, lacking].any(axis=1)
                if holds.any():
                    held[i] = holds
        gaussians = self.cache.gaussians([self.trees[i] for i in held])
        for (i, rows), gaussian in zip(held.items(), gaussians):
            self._scores[i, rows] = gaussian.logpdf_batch(self.readings[rows])

    def score(self, rows, ids) -> np.ndarray:
        """Scores of trees ``ids`` on loaded rows ``rows``; ``rows`` broadcasts
        to the shape of ``ids``."""
        scores = self._scores[ids, rows]
        missing = np.isnan(scores)
        if missing.any():
            self._fill(dict.fromkeys(ids[missing].tolist()))
            scores = self._scores[ids, rows]
        return scores

    def table(self) -> np.ndarray:
        """Hypotheses x rows: the score of every hypothesis on every loaded row."""
        scores = self._scores[: self.n_hypotheses]
        if len(self.readings):
            self._fill(np.flatnonzero(np.isnan(scores[:, 0])).tolist())
        return scores

    def neighbours(self, ids: np.ndarray, slot: int) -> np.ndarray:
        """Neighbour row ``slot`` of each tree in ``ids``."""
        table, row_of = self._hoods[slot]
        ids = ids.tolist()
        new = [i for i in dict.fromkeys(ids) if i not in row_of]
        if new:
            rows = np.full((len(new), self._width), -1, dtype=np.intp)
            for k, i in enumerate(new):
                basis = self.cache.basis(self.trees[i])
                gens, cycles = basis.generators, basis.cycles
                shared = set()  # edges on two basis cycles, which the local search keeps
                if slot < self.mu:
                    gens, cycles = gens[slot : slot + 1], cycles[slot : slot + 1]
                else:
                    seen = set()
                    for cyc in cycles:
                        shared |= seen & cyc
                        seen |= cyc
                edges = self.trees[i].edge_ids
                row = [i]
                for gen, cyc in zip(gens, cycles):
                    outs = sorted(cyc - {gen} - self.required - shared)
                    row += [self.number(SpanningTree((edges - {out}) | {gen})) for out in outs]
                rows[k, : len(row)] = row
                row_of[i] = len(table) + k
            table = np.concatenate([table, rows])
            self._hoods[slot] = table, row_of
        return table[[row_of[i] for i in ids]]

    def starts(self) -> np.ndarray:
        """Number of ``feasible_tree`` of each loaded row, -1 where it raises;
        called once per zero/nonzero pattern, which alone decides its result."""
        cache = self.cache
        keys = [pattern.tobytes() for pattern in _nonzero_pattern(self.readings)]
        for r, key in enumerate(keys):
            if key not in self._starts:
                try:
                    tree = feasible_tree(
                        cache.graph, self.readings[r], cache.placement, required_edges=self.required
                    )
                    self._starts[key] = self.number(tree)
                except GridTreeError:
                    self._starts[key] = -1
        return np.array([self._starts[key] for key in keys], dtype=np.intp)

    def detect(self, name: str, local_search: bool = False) -> np.ndarray:
        """Number of the tree that detector ``name`` (then the local search, if
        asked) gives each loaded row; -1 where the detector raises.  Detectors
        without an entry in ``DETECTOR_BATCHES`` run row by row."""
        batch = DETECTOR_BATCHES.get(name)
        picks = np.full(len(self.readings), -1, dtype=np.intp)
        if batch is not None:
            try:
                picks = batch(self)
            except GridTreeError:
                pass
        else:
            cache, detector = self.cache, DETECTORS[name]
            for r, obs in enumerate(self.readings):
                try:
                    result = detector(cache.graph, cache.placement, cache.model, obs, self.required, cache)
                except GridTreeError:
                    continue
                picks[r] = self.number(result.tree)
        if local_search:
            picks = _local_walk(self, picks)[0]
        return picks


def _step(bank: HypothesisBank, rows: np.ndarray, hoods: np.ndarray):
    """Per loaded row ``rows[r]``, the first tree of highest score in
    ``hoods[r]`` (a neighbour row: the current tree first, so it stays
    unless a neighbour scores strictly higher), and that score."""
    scores = bank.score(rows[:, None], hoods)
    best = scores.argmax(axis=1)
    at = np.arange(len(rows))
    return hoods[at, best], scores[at, best]


def _descent_walk(bank: HypothesisBank, ids):
    """Cycle descent from trees ``ids``, one per loaded row, all rows at once.

    Per row it makes ``detect_cycle_descent``'s comparisons in its order: a
    sweep is one ``_step`` per basis slot; a row stops after a sweep that
    left its tree as it was (converged; scores only rise, so a tree never
    comes back) or after ``100 * bank.mu`` sweeps.  Returns per row the
    tree number, its score, the sweeps made and whether it converged.
    """
    tree = np.array(ids, dtype=np.intp)
    ll = np.full(len(tree), _NEG_INF)
    sweeps = np.zeros(len(tree), dtype=np.intp)
    converged = np.zeros(len(tree), dtype=bool)
    live = np.arange(len(tree))  # rows still sweeping; cur holds their trees
    cur = tree
    for _ in range(100 * bank.mu):
        if not len(live):
            break
        sweeps[live] += 1
        start = cur
        for slot in range(bank.mu):
            cur, cur_ll = _step(bank, live, bank.neighbours(cur, slot))
        improved = cur != start  # before tree is written: start may be tree itself
        tree[live], ll[live] = cur, cur_ll
        converged[live[~improved]] = True
        live, cur = live[improved], cur[improved]
    return tree, ll, sweeps, converged


def _local_walk(bank: HypothesisBank, ids):
    """``local_map_search`` from trees ``ids``, one per loaded row: one
    ``_step`` over the neighbourhood row.  Returns per row the tree number,
    its score and the neighbourhood size, the tree included."""
    hoods = bank.neighbours(np.asarray(ids, dtype=np.intp), bank.mu)
    tree, ll = _step(bank, np.arange(len(hoods)), hoods)
    return tree, ll, (hoods >= 0).sum(axis=1)


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


def _fmst_batch(bank: HypothesisBank) -> np.ndarray:
    trees = _fmst_trees(bank.cache, bank.readings, bank.required)
    return np.array([bank.number(tree) for tree in trees], dtype=np.intp)


#: name -> callable(bank) giving, for every row loaded in the HypothesisBank,
#: the number of the tree that ``DETECTORS[name]`` picks, or -1 where it
#: raises.  A batch form raises only errors that hold for every row, and
#: ``HypothesisBank.detect``, the one place that catches them, gives every
#: row -1.  ``fmst`` skips the chosen tree's log-likelihood.
DETECTOR_BATCHES = {
    "map": lambda bank: _first_best(bank.table()),
    "fmst": _fmst_batch,
    "cycledescent": lambda bank: _descent_walk(bank, bank.starts())[0],
}
