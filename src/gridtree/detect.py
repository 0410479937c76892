"""Tree detectors: deterministic decoding, exact likelihood search, the
zero-flow likelihood test, and two polynomial-time approximate searches.

Every likelihood detector scores a tree by its sensors' private loads
(``_PrivateLoads``): under a fixed tree, a sensor's signed reading less the
signed readings of the sensors directly below it is the sum of the loads it
owns, so the readings' log-likelihood is a sum of independent scalar
Gaussian terms, O(m) per tree and row, with no covariance or factorisation
built.  A HypothesisCache memoizes, per (graph, placement, model), the
hypothesis sets, each tree's private-load law, zero-flow Gaussians and
cycle bases; every likelihood detector takes one as an optional ``cache``,
which must have been built for the detector's own graph, placement and
model.  ``_score`` scores a stack of laws on a block of readings by
elementwise operations in one fixed order, so a tree scores the same bits
alone or stacked, on one row or on many.  ReducedGaussian, a general
Gaussian for rank-deficient covariances, is left to the zero-flow test and
as the reference that tests check the private-load scores against.

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

Two facts carry the rest.  The deterministic decoder, ``detect_fmst`` and
the zero-flow test each read one relaxed flow, ``relaxed_flow_solution``:
the sensor edges pinned to their readings, the unmeasured tree solved.
And a tree lacking a sensor edge that reads nonzero scores -inf
(``_sensor_support``, on one row or a block): ``detect_map`` counts such
trees by the matrix-tree theorem instead of enumerating them, and a bank
numbers them, as walks meet them, but never builds them.

Per-call and batch MAP (and ``detect_zero_flow_map``) pick with one
first-best rule, ``_first_best``; ``detect_fmst`` and its batch form share
``_fmst_trees``.  Per-call MAP scores its hypotheses as one ``_score``
stack, not through a one-row bank, which would also number them.

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
from .flows import LoadModel, hypothesis_flow_distribution, relaxed_flow_solution, tree_edge_flows
from .graph import (
    Graph,
    SpanningTree,
    _finite,
    circuit_rank,
    count_spanning_trees,
    enumerate_spanning_trees,
    is_spanning_tree,
    max_weight_spanning_tree,
    root_tree,
)
from .cycles import fundamental_cycle_basis
from .placement import Placement

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
    coordinate whose residual pivot exceeds ``1e-12 * trace(cov)``.  Every
    other coordinate is an affine function of the kept ones and must match
    it within ``1e-9 * max(1, max |mean|, max |value|)``, or the value scores
    -inf; rank 0 scores +0.0.  The zero-flow test scores with it, and tests
    check the private-load scores against it.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        self._mean = np.asarray(mean, dtype=float)
        a = np.array(cov, dtype=float)
        m = len(self._mean)
        guard = 1e-12 * a.trace()
        lower = np.zeros((m, m))
        keep = []
        for j in range(m):
            if a[j, j] > guard:  # variance of j left over by the kept coordinates before it
                col = lower[j:, j] = a[j:, j] / math.sqrt(a[j, j])
                a[j:, j:] -= col[:, None] * col
                keep.append(j)
        self.keep, self.dep, self.rank = keep, [j for j in range(m) if j not in keep], len(keep)
        kept = lower[:, keep]
        self.logdet = 2.0 * float(np.log(kept[keep].diagonal()).sum())
        self._whiten = np.linalg.inv(kept[keep])
        self._implied = kept[self.dep]  # a dependent deviation is this times the whitened kept ones
        self.tol_scale = max(1.0, float(np.max(np.abs(self._mean), initial=0.0)))

    def logpdf(self, values: Sequence[float]) -> float:
        return float(self.logpdf_batch(np.asarray(values, dtype=float)[None])[0])

    def logpdf_batch(self, values: np.ndarray) -> np.ndarray:
        V = np.asarray(values, dtype=float)
        d = V - self._mean
        z = d[:, self.keep] @ self._whiten.T
        tol = 1e-9 * np.maximum(self.tol_scale, np.max(np.abs(V), axis=1, initial=0.0))
        ok = np.all(np.abs(d[:, self.dep] - z @ self._implied.T) <= tol[:, None], axis=1)
        score = 0.0 - 0.5 * ((self.rank * _LOG_2PI + self.logdet) + (z * z).sum(axis=1))
        return np.where(ok, score, _NEG_INF)


class _PrivateLoads:
    """One tree's sensor readings as independent private loads.

    A load's owner is the first sensor edge on its path to the root; a
    co-tree sensor owns nothing.  A sensor's private reading, its signed
    reading less those of its children (the sensors directly below it), is
    the sum of the loads it owns: a Gaussian of the owned mean and variance,
    independent of the others.  The readings are ``S A q`` for the private
    readings ``q``, the signs ``S`` and the sensor forest's ancestor matrix
    ``A``, which is totally unimodular, so on any maximal independent subset
    of the readings (ReducedGaussian's kept ones) the change of coordinates
    has determinant +-1, and the log-likelihood is a sum of scalar terms.

    Per sensor in placement order: ``table`` holds the sign (+1 off the
    tree), the owned mean, and the owned variance d or +inf where d is at
    most the guard ``1e-12 * trace`` of the readings' covariance; ``links``
    holds the parent sensor and the rank among its siblings (-1 for none).
    ``rounds`` is the most children of a sensor, ``const`` the sum of
    ``log(2 pi d)`` over the d above the guard, and ``scale`` is
    ``max(1, max |forecast reading|)``: the guard and scale ReducedGaussian
    takes.
    """

    __slots__ = ("table", "links", "rounds", "const", "scale")

    def __init__(self, cache: "HypothesisCache", tree: SpanningTree):
        graph, slot = cache.graph, cache._slot
        m = len(slot)
        sign, up, mean, var = [1.0] * m, [-1] * m, [0.0] * m, [0.0] * m
        parent, _, order = root_tree(graph, tree)
        owner = {graph.root: -1}
        for v in order[1:]:
            above, eid = parent[v]
            k = slot.get(eid)
            if k is None:
                owner[v] = owner[above]
            else:
                owner[v], up[k] = k, owner[above]
                sign[k] = 1.0 if graph.edges[eid][1] == v else -1.0
        reading, spread = [0.0] * m, [0.0] * m  # per sensor: forecast reading, its variance
        for v, mu, sd2 in zip(graph.load_vertices, cache._means, cache._variances):
            k = owner[v]
            if k >= 0:
                mean[k] += mu
                var[k] += sd2
            while k >= 0:  # the load's owner and every sensor above it
                reading[k] += mu
                spread[k] += sd2
                k = up[k]
        guard = 1e-12 * sum(spread)
        rank, children = [-1] * m, [0] * m
        for k, p in enumerate(up):
            if p >= 0:
                rank[k], children[p] = children[p], children[p] + 1
        kept = [d for d in var if d > guard]
        self.const = len(kept) * _LOG_2PI + sum(map(math.log, kept))
        self.scale = max([1.0, *map(abs, reading)])
        self.table = np.array([sign, mean, [d if d > guard else math.inf for d in var]])
        self.links = np.array([up, rank], dtype=np.intp).reshape(2, m)
        self.rounds = max(children, default=0)


def _score(laws: Sequence[_PrivateLoads], readings: np.ndarray) -> np.ndarray:
    """Trees x rows: the log-likelihood of each row of ``readings`` under each law.

    Per tree and row, the sum over d > guard of ``-(log(2 pi d) + z^2 / d) / 2``
    for ``z`` the private reading less its mean, or -inf where a sensor with d
    at most the guard has ``|z| > 1e-9 * max(scale, max |r|)``.  Only
    elementwise operations run, in one order per tree (children by rank,
    terms summed sensor by sensor in placement order), so a tree scores the
    same bits alone or stacked, on one row or on a block of any size.
    """
    n, m = readings.shape
    if not laws:
        return np.zeros((0, n))
    step = max(1, 2**14 // max(n * m, 1))  # trees per stack, so no stack outgrows 2**14 floats
    if len(laws) > step:
        return np.concatenate([_score(laws[i : i + step], readings) for i in range(0, len(laws), step)])
    sign, mean, var = np.concatenate([law.table for law in laws], axis=1)  # rows (tree, sensor)
    up, rank = np.concatenate([law.links for law in laws], axis=1)
    if len(laws) > 1:
        up = up + np.repeat(np.arange(len(laws)) * m, m)  # the parent's row in the stack
    cols = np.ascontiguousarray(readings.T)  # one row per sensor
    w = (sign.reshape(len(laws), m, 1) * cols).reshape(len(sign), n)
    z = w - mean[:, None]
    for j in range(max(law.rounds for law in laws)):
        child = np.flatnonzero(rank == j)  # at most one child of each parent
        z[up[child]] -= w[child]
    z, var = z.reshape(len(laws), m, n), var.reshape(len(laws), m, 1)
    quad = sum((z * z / var).swapaxes(0, 1))  # sensor by sensor, in placement order
    const, scale = np.array([(law.const, law.scale) for law in laws]).T
    tol = 1e-9 * np.maximum(scale[:, None], np.max(np.abs(cols), axis=0, initial=0.0))
    bad = ((np.abs(z) > tol[:, None]) & (var == math.inf)).any(axis=1)
    return np.where(bad, _NEG_INF, 0.0 - 0.5 * (const[:, None] + quad))


class HypothesisCache:
    """Per-(graph, placement, model) memo of hypothesis sets, private-load
    laws (``gaussian``), zero-flow Gaussians and cycle bases.  The model and
    sensor ids are checked once, here, not per tree."""

    def __init__(self, graph: Graph, placement: Placement, model: LoadModel):
        model.check_graph(graph)
        graph.check_edges(placement.edge_ids)
        self.graph = graph
        self.placement = placement
        self.model = model
        self._slot = {eid: k for k, eid in enumerate(placement.edge_ids)}
        self._means, self._variances = model.means.tolist(), model.variances.tolist()
        self._hypotheses: dict[frozenset, list[SpanningTree]] = {}
        self._laws: dict[frozenset, _PrivateLoads] = {}
        self._zero_flow: dict[frozenset, tuple[list[int], ReducedGaussian]] = {}
        self._J: np.ndarray | None = None
        self._bases: dict[frozenset, object] = {}

    def hypotheses(self, restriction: Iterable[int] = ()) -> list[SpanningTree]:
        """Every spanning tree containing ``restriction``, in enumeration order."""
        key = frozenset(restriction)
        if key not in self._hypotheses:
            self._hypotheses[key] = list(enumerate_spanning_trees(self.graph, key))
        return self._hypotheses[key]

    def gaussian(self, tree: SpanningTree) -> _PrivateLoads:
        """The private-load law of ``tree``'s readings, made on first use."""
        law = self._laws.get(tree.edge_ids)
        if law is None:
            law = self._laws[tree.edge_ids] = _PrivateLoads(self, tree)
        return law

    def loglik(self, tree: SpanningTree, observation: Sequence[float]) -> float:
        """Log-likelihood of ``observation`` (checked by ``_observation``) under ``tree``."""
        return float(_score([self.gaussian(tree)], _observation(observation, self.placement)[None])[0, 0])

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


def _sensor_support(placement: Placement, model: LoadModel, readings: np.ndarray) -> frozenset:
    """Sensor edges whose reading rules out every tree that lacks them, on
    every row of ``readings`` (one observation, or a block of them).

    The threshold is ``1e-9 * max(1, 2 * sum|mu|, max|s|)``.  Every forecast
    reading is a signed sum of a subset of the load means, so its magnitude
    is at most sum|mu| up to rounding, which the factor 2 absorbs; the
    threshold is therefore at least the private-load tolerance
    ``1e-9 * max(scale, max|s|)`` of every tree.  A tree without sensor edge
    e makes e a co-tree sensor: it owns no load, so its owned mean and
    variance are 0, at most the guard, and its private reading is its
    reading.  A reading on e above the threshold is above that tree's
    tolerance, so the tree's log-likelihood is -inf.  On a block, an edge
    supported on every row rules out the trees lacking it on every row.

    So such trees score -inf unbuilt: ``detect_map`` counts them without
    enumerating them, and a HypothesisBank numbers them but builds none.
    Cycle descent never leaves the trees holding the support: its start
    tree (``feasible_tree``, whose zero tolerance is lower) holds every
    support edge, and a -inf candidate never beats the current likelihood.
    """
    floor = max(1.0, 2.0 * float(np.abs(model.means).sum()))
    held = _nonzero_pattern(np.atleast_2d(readings), floor).all(axis=0)
    return frozenset(compress(placement.edge_ids, held))


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
    x = _finite(loads, "loads")
    f = relaxed_flow_solution(graph, placement, x, _observation(observation, placement))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(x), initial=0.0)))
    support = {e for e in range(graph.n_edges) if abs(f[e]) > tol}
    support.update(graph.check_edges(required_edges))
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
    cols = list(graph.check_edges(placement.edge_ids))
    return tuple(
        tree for tree in enumerate_spanning_trees(graph, restriction)
        if np.max(np.abs(tree_edge_flows(graph, tree, x)[cols] - s), initial=0.0) <= tol
    )


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
    scored as one stack; every other tree scores -inf (see
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
    scores = _score([cache.gaussian(t) for t in hypotheses], observation[None])[:, 0]
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

    Column k is the relaxed flow (``relaxed_flow_solution``) of zero loads
    and a unit reading on sensor k alone: the signed indicator of the
    fundamental cycle that sensor k's edge closes against the unmeasured
    spanning tree.  Measured rows form an identity block, and ``B J = 0``.
    """
    unit = np.eye(len(placement.edge_ids))
    return relaxed_flow_solution(graph, placement, np.zeros(len(graph.load_vertices)), unit).T


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
    """The zero-flow statistic of ``tree``.  Raises as ``hypothesis_flow_distribution``
    does, and InvalidPlacementError unless ``J`` has shape (|E|, |M|), ``J[measured]``
    is the identity and ``incidence @ J`` is zero, within 1e-9: for a valid
    placement, exactly when ``J`` is its ``zero_flow_transform``."""
    _, cov = hypothesis_flow_distribution(graph, tree, placement, model)
    J = np.asarray(J, dtype=float)
    m = len(placement.edge_ids)
    if J.shape != (graph.n_edges, m) or not (
        np.all(np.abs(J[list(placement.edge_ids)] - np.eye(m)) <= 1e-9)
        and np.all(np.abs(graph.incidence @ J) <= 1e-9)
    ):
        raise InvalidPlacementError("J is not the zero-flow transform of this placement")
    indices = tree.cotree(graph)
    H = J[list(indices), :]
    return ZeroFlowStatistic(indices=indices, covariance=H @ cov @ H.T, transform=H)


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
    The statistics' covariances are general, so each is scored by a
    ReducedGaussian.
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

    The chosen tree is scored by its log-likelihood.  ``cache`` is
    optional; pass one to reuse private-load laws across calls.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    [tree] = _fmst_trees(cache, observation[None], required_edges)
    ll = float(_score([cache.gaussian(tree)], observation[None])[0, 0])
    return DetectionResult(tree=tree, log_likelihood=ll, method="fmst")


def _fmst_trees(cache: HypothesisCache, readings: np.ndarray, required_edges: Iterable[int]) -> list:
    """``detect_fmst``'s tree for each row of ``readings``: one block relaxed
    solve, then one block call of ``max_weight_spanning_tree`` on |flow|."""
    flows = relaxed_flow_solution(cache.graph, cache.placement, cache.model.means, readings)
    return max_weight_spanning_tree(cache.graph, np.abs(flows), required_edges)


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
    for k, eid in enumerate(graph.check_edges(placement.edge_ids)):
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
    ``_sensor_support`` with a higher floor."""
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
    No tree is enumerated: the walk is ``_descent_walk`` on a one-row
    HypothesisBank, on the sweep's neighbour rows.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    bank = HypothesisBank(cache, required_edges, readings=observation[None])
    start = bank.number(feasible_tree(graph, observation, placement, required_edges=bank.required))
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
    UnknownEdgeError for a required id that is not an edge, and
    InfeasibleConstraintError unless the seed holds every required edge.
    """
    observation, cache = _observation_and_cache(graph, placement, model, observation, cache)
    bank = HypothesisBank(cache, graph.check_edges(required_edges), readings=observation[None])
    if not bank.required <= seed_tree.edge_ids:
        raise InfeasibleConstraintError("the seed tree lacks a required edge")
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

    A tree's score column is filled on first use, as one ``_score`` stack
    on the whole block; a tree lacking an edge of the block's
    ``_sensor_support`` scores -inf on every row unbuilt.  Memory per loaded
    block is one float per (row, numbered tree), NaN until scored, and a
    spare last entry that number -1 reads.
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
        self._needed = _sensor_support(self.cache.placement, self.cache.model, self.readings)
        self._scores = None  # the last block's scores go before this block's are made
        self._scores = np.full((self._capacity + 1, len(self.readings)), np.nan)
        self._scores[-1] = _NEG_INF

    def _fill(self, ids) -> None:
        held = [i for i in ids if self._needed <= self.trees[i].edge_ids]
        self._scores[ids] = _NEG_INF
        self._scores[held] = _score([self.cache.gaussian(self.trees[i]) for i in held], self.readings)

    def score(self, rows, ids) -> np.ndarray:
        """Scores of trees ``ids`` on loaded rows ``rows``; ``rows`` broadcasts
        to the shape of ``ids``."""
        scores = self._scores[ids, rows]
        missing = np.isnan(scores)
        if missing.any():
            self._fill(list(dict.fromkeys(ids[missing].tolist())))
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
