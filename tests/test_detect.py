import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gridtree import (
    GridTreeError,
    InconsistentObservationError,
    InfeasibleConstraintError,
    InvalidPlacementError,
    LoadModel,
    ModelError,
    NoFeasibleHypothesisError,
    Placement,
    SpanningTree,
    UnknownEdgeError,
    UnsupportedPlacementError,
    detect_cycle_descent,
    detect_deterministic,
    detect_enumeration_oracle,
    detect_fmst,
    detect_map,
    detect_zero_flow_map,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    feasible_tree,
    fundamental_cycle_basis,
    hypothesis_flow,
    hypothesis_flow_distribution,
    local_map_search,
    log_likelihood,
    max_weight_spanning_tree,
    observation_matrix,
    tree_edge_flows,
    tree_to_placement,
    zero_flow_statistic,
    zero_flow_transform,
)
from gridtree.detect import (
    DETECTORS,
    HypothesisBank,
    HypothesisCache,
    ReducedGaussian,
    _descent_walk,
    _first_best,
    _local_walk,
    _score,
)
from conftest import lattice_graph, random_connected_graph
from test_prune import _snapshot

GENERIC_LOADS = np.array([1.13, 0.91, 1.27, 0.73, 1.19])


@pytest.fixture(scope="module")
def tau_trees(island):
    return list(enumerate_spanning_trees(island.graph, island.tau))


@pytest.fixture(scope="module")
def tau_placements(island):
    return enumerate_valid_placements(island.graph, island.tau).placements


class TestReducedGaussian:
    def test_full_rank_matches_closed_form(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        rg = ReducedGaussian(mean, cov)
        v = np.array([0.5, -1.0])
        d = v - mean
        expected = -0.5 * (
            2 * math.log(2 * math.pi)
            + math.log(np.linalg.det(cov))
            + d @ np.linalg.inv(cov) @ d
        )
        assert rg.logpdf(v) == pytest.approx(expected)

    def test_density_at_mean_is_normalizer(self):
        cov = np.diag([4.0, 0.25])
        rg = ReducedGaussian(np.zeros(2), cov)
        expected = -0.5 * math.log((2 * math.pi) ** 2 * np.linalg.det(cov))
        assert rg.logpdf(np.zeros(2)) == pytest.approx(expected)

    def test_rank_deficient_consistency(self):
        # second coordinate is an exact copy of the first
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        mean = np.array([0.0, 0.0])
        rg = ReducedGaussian(mean, cov)
        assert rg.rank == 1
        assert np.isfinite(rg.logpdf([0.4, 0.4]))
        assert rg.logpdf([0.4, -0.4]) == float("-inf")

    def test_zero_covariance_is_point_mass(self):
        rg = ReducedGaussian(np.array([1.5]), np.zeros((1, 1)))
        assert rg.logpdf([1.5]) == 0.0
        assert rg.logpdf([1.6]) == float("-inf")
        # +0.0 on both paths, not -0.0
        assert math.copysign(1.0, rg.logpdf([1.5])) == 1.0
        batch = rg.logpdf_batch(np.array([[1.5], [1.6]]))
        assert math.copysign(1.0, batch[0]) == 1.0
        assert batch[1] == float("-inf")

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3))
        cov = A @ A.T
        cov[2] = cov[0]
        cov[:, 2] = cov[:, 0]  # rank 2
        mean = rng.normal(size=3)
        rg = ReducedGaussian(mean, cov)
        V = mean + rng.normal(size=(20, 3)) * 0.1
        V[::3, 2] = V[::3, 0] + (mean[2] - mean[0])  # force some consistent rows
        batch = rg.logpdf_batch(V)
        for i, v in enumerate(V):
            assert batch[i] == pytest.approx(rg.logpdf(v)) or (
                batch[i] == rg.logpdf(v) == float("-inf")
            )


    def test_batch_tolerance_is_per_row(self):
        # a large reading in one row must not loosen the check of another
        rg = ReducedGaussian(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [0.0, 1.0]]))
        row = [5e-9, 1.0]
        assert rg.logpdf(row) == float("-inf")
        assert rg.logpdf_batch(np.array([row]))[0] == float("-inf")
        batch = rg.logpdf_batch(np.array([row, [0.0, 1e4]]))
        assert batch[0] == float("-inf")
        assert batch[1] == rg.logpdf([0.0, 1e4])


def _eigenvalue_scan(cov):
    """Reference kept set: a greedy scan in coordinate order that keeps j when
    the smallest eigenvalue of the kept submatrix with j added stays above
    ``1e-12 * trace(cov)``."""
    guard = 1e-12 * float(np.trace(cov))
    keep = []
    for j in range(len(cov)):
        trial = keep + [j]
        if np.linalg.eigvalsh(cov[np.ix_(trial, trial)])[0] > guard:
            keep = trial
    return keep


def _reference_scores(mean, cov, keep, V):
    """Log-density of each row of V on the kept coordinates by direct solves;
    -inf where a dependent coordinate misses its implied value."""
    dep = [j for j in range(len(mean)) if j not in keep]
    C = cov[np.ix_(keep, keep)]
    D = V[:, keep] - mean[keep]
    S = np.linalg.solve(C, D.T).T if keep else D
    implied = mean[dep] + S @ cov[np.ix_(dep, keep)].T
    tol = 1e-9 * np.maximum(max(1.0, np.max(np.abs(mean), initial=0.0)), np.max(np.abs(V), axis=1))
    ok = np.all(np.abs(V[:, dep] - implied) <= tol[:, None], axis=1)
    quad = np.einsum("ij,ij->i", D, S)
    scores = -0.5 * (len(keep) * math.log(2 * math.pi) + np.linalg.slogdet(C)[1] + quad)
    return np.where(ok, scores, -np.inf)


class TestFactorisationMatchesEigenvalueScan:
    """ReducedGaussian keeps the coordinates the eigenvalue scan keeps, and
    scores like direct solves on them, on hypothesis covariances of the island
    and of random multigraphs."""

    @staticmethod
    def _check(graph, trees, placement, model, rng, counts):
        draws = [model.means + model.stddevs * rng.standard_normal(len(model.means)) for _ in range(2)]
        gammas = [observation_matrix(graph, t, placement) for t in trees]
        V = np.array([gm @ x for x in draws for gm in gammas])
        for h, tree in enumerate(trees):
            mean, given = hypothesis_flow_distribution(graph, tree, placement, model)
            cov = given.copy()
            rg = ReducedGaussian(mean, given)
            assert np.array_equal(given, cov)  # the caller's cov is left as given
            keep = _eigenvalue_scan(cov)
            assert rg.keep == keep
            assert rg.dep == [j for j in range(len(cov)) if j not in keep]
            C = cov[np.ix_(keep, keep)]
            assert abs(rg.logdet - np.linalg.slogdet(C)[1]) <= 1e-9
            ref = _reference_scores(mean, cov, keep, V)
            batch = rg.logpdf_batch(V)
            assert np.array_equal(np.isinf(batch), np.isinf(ref))
            assert batch[np.isfinite(ref)] == pytest.approx(ref[np.isfinite(ref)])
            for i in (h, len(trees) + (h + 1) % len(trees)):  # own readings and another tree's
                one = rg.logpdf(V[i])
                assert one == ref[i] if np.isinf(ref[i]) else one == pytest.approx(ref[i])
            counts["cases"] += 1
            counts["deficient"] += bool(rg.dep)
            counts["inf"] += int(np.isinf(ref).sum())
            counts["finite"] += int(np.isfinite(ref).sum())

    def test_island_hypotheses(self, island, tau_trees, tau_placements):
        rng = np.random.default_rng(31)
        counts = {"cases": 0, "deficient": 0, "inf": 0, "finite": 0}
        models = [island.load_model.with_stddev(sd) for sd in (0.05, 0.2, 1.0)]
        models.append(island.load_model.with_cv(5.0))
        for pl in tau_placements:
            for model in models:
                self._check(island.graph, tau_trees, pl, model, rng, counts)
        assert counts["cases"] == 44 * 44 * 4
        assert 0 < counts["deficient"] < counts["cases"]
        assert counts["inf"] > 0 and counts["finite"] > 0

    def test_random_multigraph_hypotheses(self):
        rng = np.random.default_rng(37)
        counts = {"cases": 0, "deficient": 0, "inf": 0, "finite": 0}
        for _ in range(60):
            g = random_connected_graph(rng)
            trees = list(enumerate_spanning_trees(g))[:12]
            n_sensors = int(rng.integers(1, g.n_edges + 1))
            pl = Placement(tuple(sorted(rng.choice(g.n_edges, n_sensors, replace=False).tolist())))
            n = len(g.load_vertices)
            variances = rng.uniform(0.0, 1.0, n) * (rng.random(n) > 0.2)  # some exact loads
            model = LoadModel(tuple(g.load_vertices), rng.uniform(0.5, 1.5, n), variances)
            self._check(g, trees, pl, model, rng, counts)
        assert 0 < counts["deficient"] < counts["cases"]
        assert counts["inf"] > 0 and counts["finite"] > 0


def _law_scores(graph, trees, placement, model, V):
    """Trees x rows: each tree's private-load scores of the rows of V, one
    tree at a time, and the same trees scored as one stack."""
    cache = HypothesisCache(graph, placement, model)
    laws = [cache.gaussian(t) for t in trees]
    return np.array([_score([law], V)[0] for law in laws]), _score(laws, V)


class TestStackedFactorisation:
    """A tree's private-load scores are the same bits scored alone as in a
    stack of trees, and agree with its ReducedGaussian to a relative 1e-12,
    with the same -inf rows; ReducedGaussian in turn keeps what the
    eigenvalue scan keeps on random rank-deficient covariances."""

    @staticmethod
    def _check(graph, trees, placement, model, rng, counts):
        x = model.means + model.stddevs * rng.standard_normal(len(model.means))
        V = np.array([observation_matrix(graph, t, placement) @ x for t in trees])
        alone, stacked = _law_scores(graph, trees, placement, model, V)
        assert alone.tobytes() == stacked.tobytes()
        for tree, got in zip(trees, alone):
            ref = ReducedGaussian(*hypothesis_flow_distribution(graph, tree, placement, model)).logpdf_batch(V)
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            finite = np.isfinite(ref)
            assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))
            counts["inf"] += int((~finite).sum())
            counts["finite"] += int(finite.sum())

    def test_island_trees(self, island, tau_trees, tau_placements):
        rng = np.random.default_rng(51)
        counts = {"inf": 0, "finite": 0}
        for pl in tau_placements[::4]:
            for model in (island.load_model.with_stddev(0.2), island.load_model.with_cv(5.0)):
                self._check(island.graph, tau_trees, pl, model, rng, counts)
        assert min(counts.values()) > 0

    def test_lattice_trees(self):
        rng = np.random.default_rng(53)
        g = lattice_graph(4)
        n = len(g.load_vertices)
        counts = {"inf": 0, "finite": 0}
        for k in range(6):
            trees = [max_weight_spanning_tree(g, rng.random(g.n_edges)) for _ in range(10)]
            pl = tree_to_placement(g, max_weight_spanning_tree(g, rng.random(g.n_edges)))
            variances = np.full(n, 0.04) * (rng.random(n) > 0.3) * (k != 0)  # all exact at k = 0
            model = LoadModel(g.load_vertices, rng.uniform(0.5, 1.5, n), variances)
            self._check(g, trees, pl, model, rng, counts)
        assert min(counts.values()) > 0

    def test_random_rank_deficient_covariances(self):
        rng = np.random.default_rng(59)
        seen = set()
        for _ in range(40):
            m = int(rng.integers(1, 12))
            mean = rng.normal(size=m)
            B = rng.normal(size=(m, int(rng.integers(0, m + 1))))
            cov = B @ B.T
            rg = ReducedGaussian(mean, cov)
            keep = _eigenvalue_scan(cov)
            assert rg.keep == keep
            V = mean + rng.normal(size=(6, B.shape[1])) @ B.T  # draws of the Gaussian
            V = np.vstack([V, V + 1e-3 * rng.normal(size=(6, m))])  # and draws off its support
            ref = _reference_scores(mean, cov, keep, V)
            got = rg.logpdf_batch(V)
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            assert got[np.isfinite(ref)] == pytest.approx(ref[np.isfinite(ref)])
            seen.add(rg.rank)
        assert 0 in seen and max(seen) >= 8


class TestOneRowEqualsBatch:
    """A tree's private-load score of a row is the same bits in a block of
    rows of any size as from ``HypothesisCache.loglik`` on that row alone
    (checked on up to three rows per tree), -inf rows and trees with every load
    exact included.  The rows are the
    exact readings of every tree under one load draw, and the same readings
    with one entry moved by about the consistency tolerance."""

    SMALL = (0, 1, 2, 3, 9)

    @staticmethod
    def _check(graph, trees, placement, model, rng, counts):
        x = model.means + np.sqrt(model.variances) * rng.standard_normal(len(model.means))
        V = np.array([observation_matrix(graph, t, placement) @ x for t in trees])
        nudged = V.copy()
        col = rng.integers(V.shape[1], size=len(V))
        step = 1e-9 * np.maximum(1.0, np.max(np.abs(V), axis=1)) * rng.uniform(0.5, 2.0, len(V))
        nudged[np.arange(len(V)), col] += step * rng.choice((-1.0, 1.0), len(V))
        V = np.vstack([V, nudged])
        pick = np.random.default_rng(len(V))  # its own stream, so ``rng`` draws the same cases
        cache = HypothesisCache(graph, placement, model)
        for tree in trees:
            law = cache.gaussian(tree)
            batch = _score([law], V)[0]
            rows = pick.choice(len(V), size=min(3, len(V)), replace=False)
            one = np.array([cache.loglik(tree, V[r]) for r in rows])
            assert one.tobytes() == batch[rows].tobytes(), [
                (float(a).hex(), float(b).hex()) for a, b in zip(one, batch[rows]) if a.tobytes() != b.tobytes()
            ]
            for n in TestOneRowEqualsBatch.SMALL:
                rows = pick.choice(len(V), size=n, replace=n > len(V))
                small = _score([law], V[rows])[0]
                assert small.shape == (n,) and small.tobytes() == batch[rows].tobytes()
                counts["small_inf"] += int(np.isinf(small).sum())
            exact = np.isinf(law.table[2])  # sensors whose owned variance is at most the guard
            counts["rank0"] += bool(exact.all())
            counts["deficient"] += bool(exact.any())
            counts["inf"] += int(np.isinf(batch).sum())
            counts["finite"] += int(np.isfinite(batch).sum())

    @staticmethod
    def _exact_loads(model, rng):
        """``model`` with some of its loads, or all of them, made exact."""
        n = len(model.means)
        keep = rng.random(n) > 0.3 if rng.random() < 0.8 else np.zeros(n, dtype=bool)
        return LoadModel(model.nodes, model.means, model.variances * keep)

    def test_island_hypotheses(self, island, tau_trees, tau_placements):
        rng = np.random.default_rng(41)
        counts = dict.fromkeys(("rank0", "deficient", "inf", "finite", "small_inf"), 0)
        models = [island.load_model.with_stddev(sd) for sd in (0.05, 0.2, 1.0)]
        models.append(island.load_model.with_cv(5.0))
        for pl in tau_placements:
            for model in models:
                self._check(island.graph, tau_trees, pl, model, rng, counts)
        assert min(counts.values()) > 0

    def test_random_multigraph_hypotheses(self):
        rng = np.random.default_rng(43)
        counts = dict.fromkeys(("rank0", "deficient", "inf", "finite", "small_inf"), 0)
        for _ in range(60):
            g = random_connected_graph(rng)
            trees = list(enumerate_spanning_trees(g))[:12]
            n_sensors = int(rng.integers(1, g.n_edges + 1))
            pl = Placement(tuple(sorted(rng.choice(g.n_edges, n_sensors, replace=False).tolist())))
            n = len(g.load_vertices)
            model = LoadModel(tuple(g.load_vertices), rng.uniform(0.5, 1.5, n), rng.uniform(0.0, 1.0, n))
            self._check(g, trees, pl, self._exact_loads(model, rng), rng, counts)
        assert min(counts.values()) > 0

    def test_lattice_snapshots(self):
        rng = np.random.default_rng(47)
        g = lattice_graph(4)
        counts = dict.fromkeys(("rank0", "deficient", "inf", "finite", "small_inf"), 0)
        for _ in range(12):
            trees = [max_weight_spanning_tree(g, rng.random(g.n_edges)) for _ in range(12)]
            pl = tree_to_placement(g, max_weight_spanning_tree(g, rng.random(g.n_edges)))
            n = len(g.load_vertices)
            model = LoadModel(g.load_vertices, rng.uniform(0.5, 1.5, n), np.full(n, 0.2**2))
            self._check(g, trees, pl, self._exact_loads(model, rng), rng, counts)
        assert min(counts.values()) > 0


class TestCacheMustMatchProblem:
    """A cache built for another graph, placement or model raises ModelError
    in every likelihood detector, instead of answering for that problem."""

    @staticmethod
    def _detectors(g, pl, model, s, tau, seed, cache):
        return (
            lambda: detect_map(g, pl, model, s, tau, cache=cache),
            lambda: detect_fmst(g, pl, model, s, tau, cache=cache),
            lambda: detect_zero_flow_map(g, pl, model, s, tau, cache=cache),
            lambda: detect_cycle_descent(g, pl, model, s, cache=cache, required_edges=tau),
            lambda: local_map_search(g, pl, model, s, seed, cache=cache, required_edges=tau),
        )

    def test_mismatched_cache_raises(self, island, tau_trees):
        from gridtree import build_island_fixture

        g = island.graph
        pl = Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.2)
        true = tau_trees[3]
        s = hypothesis_flow(g, true, pl, model.means)
        wrong = (
            HypothesisCache(g, pl, island.load_model.with_stddev(1.0)),  # another sigma
            HypothesisCache(g, pl, island.load_model.with_stddev(0.2)),  # an equal model
            HypothesisCache(g, Placement((6, 7, 10, 11)), model),
            HypothesisCache(build_island_fixture().graph, pl, model),  # an equal graph
        )
        for cache in wrong:
            for run in self._detectors(g, pl, model, s, island.tau, true, cache):
                with pytest.raises(ModelError, match="cache was built for another"):
                    run()
        right = HypothesisCache(g, Placement([6, 7, 10, 12]), model)  # the same sensors as a list
        for run, cold in zip(
            self._detectors(g, pl, model, s, island.tau, true, right),
            self._detectors(g, pl, model, s, island.tau, true, None),
        ):
            assert run() == cold()


class TestLogLikelihood:
    def test_maximal_at_hypothesis_mean(self, island, tau_trees):
        from gridtree import hypothesis_flow_distribution

        pl = Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.2)
        tree = tau_trees[5]
        s = hypothesis_flow(island.graph, tree, pl, model.means)
        rg = ReducedGaussian(*hypothesis_flow_distribution(island.graph, tree, pl, model))
        assert log_likelihood(island.graph, tree, pl, model, s) == pytest.approx(
            -0.5 * (rg.rank * math.log(2 * math.pi) + rg.logdet)
        )

    def test_observation_checked(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.2)
        s = hypothesis_flow(island.graph, tau_trees[5], pl, model.means)
        with pytest.raises(ModelError, match="finite"):
            log_likelihood(island.graph, tau_trees[5], pl, model, [float("nan"), *s[1:]])
        for wrong in (s[:3], [*s, 1.0]):
            with pytest.raises(InvalidPlacementError):
                log_likelihood(island.graph, tau_trees[5], pl, model, wrong)

    def test_symmetric_scalar_tie(self):
        from gridtree import Graph

        g = Graph(["r", "a", "b"], [("r", "a"), ("a", "b"), ("r", "b")])
        # only load a is uncertain, so both hypotheses have the same variance
        model = LoadModel(("a", "b"), np.array([1.0, 1.0]), np.array([0.04, 0.0]))
        pl = Placement((0,))
        t_both = SpanningTree(frozenset({0, 1}))  # sensor reads a+b -> mean 2
        t_one = SpanningTree(frozenset({0, 2}))  # sensor reads a   -> mean 1
        s = np.array([1.5])  # halfway between the hypothesis means
        assert log_likelihood(g, t_both, pl, model, s) == pytest.approx(
            log_likelihood(g, t_one, pl, model, s)
        )

    def test_true_tree_wins_almost_always(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        sigma = 0.1
        model = island.load_model.with_stddev(sigma)
        cache = HypothesisCache(island.graph, pl, model)
        cols = list(pl.edge_ids)
        wins = 0
        trials = 1000
        rng = np.random.default_rng(42)
        for i in range(trials):
            true = tau_trees[rng.integers(len(tau_trees))]
            x = model.means + sigma * rng.standard_normal(5)
            s = tree_edge_flows(island.graph, true, x)[cols]
            ll_true = cache.loglik(true, s)
            if all(
                ll_true >= cache.loglik(t, s) for t in tau_trees if t.edge_ids != true.edge_ids
            ):
                wins += 1
        assert wins / trials >= 0.99


class TestDetectDeterministic:
    def test_small_graph_zero_observation(self, example_graph):
        r = detect_deterministic(example_graph, Placement((2, 4)), np.ones(4), [0.0, 0.0])
        assert r.tree.edge_ids == frozenset({0, 1, 3, 5})
        assert r.method == "deterministic"

    def test_island_all_trees_all_placements(self, island, tau_trees, tau_placements):
        for pl in tau_placements[:5]:
            for tree in tau_trees:
                s = hypothesis_flow(island.graph, tree, pl, GENERIC_LOADS)
                r = detect_deterministic(
                    island.graph, pl, GENERIC_LOADS, s, required_edges=island.tau
                )
                assert r.tree.edge_ids == tree.edge_ids

    def test_inconsistent_observation_rejected(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        s = hypothesis_flow(island.graph, tau_trees[3], pl, GENERIC_LOADS)
        s = s + np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(InconsistentObservationError):
            detect_deterministic(island.graph, pl, GENERIC_LOADS, s, required_edges=island.tau)

    def test_invalid_placement_rejected(self, island):
        with pytest.raises(InvalidPlacementError):
            detect_deterministic(island.graph, Placement((0, 1, 2, 3)), GENERIC_LOADS, np.zeros(4))

    def test_every_placement_every_tree_on_small_graphs(self, small_corpus):
        # exhaustive: all-loaded graphs need no mandatory-edge completion
        from gridtree import enumerate_valid_placements as evp

        for name, g in small_corpus:
            rng = np.random.default_rng(len(name))
            loads = rng.uniform(0.5, 1.5, size=len(g.load_vertices))
            trees = list(enumerate_spanning_trees(g))
            for pl in evp(g).placements:
                for tree in trees:
                    s = hypothesis_flow(g, tree, pl, loads)
                    r = detect_deterministic(g, pl, loads, s)
                    assert r.tree.edge_ids == tree.edge_ids, (name, pl, tree)


class TestEnumerationOracle:
    def test_singleton_matches_deterministic(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        tree = tau_trees[11]
        s = hypothesis_flow(island.graph, tree, pl, GENERIC_LOADS)
        hits = detect_enumeration_oracle(
            island.graph, pl, GENERIC_LOADS, s, restriction=island.tau
        )
        assert len(hits) == 1 and hits[0].edge_ids == tree.edge_ids

    def test_empty_placement_matches_everything(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        hits = detect_enumeration_oracle(tri, Placement(()), [1.0, 1.0], [])
        assert len(hits) == 3

    def test_unsensed_cycle_yields_collisions(self, island_all_loaded):
        g = island_all_loaded
        pl = Placement((5, 6, 9, 10))  # leaves the quad through v4 unsensed
        rng = np.random.default_rng(3)
        loads = rng.uniform(0.5, 1.5, size=9)
        tree = next(iter(enumerate_spanning_trees(g)))
        s = hypothesis_flow(g, tree, pl, loads)
        hits = detect_enumeration_oracle(g, pl, loads, s)
        assert len(hits) >= 2

    @pytest.mark.parametrize("edges, reading, found", [((0,), [2.5], 0), ((), [], 3)])
    def test_registry_entry_needs_exactly_one_tree(self, small_corpus, edges, reading, found):
        # no triangle tree sends 2.5 over edge 0; with no sensor all three trees match
        tri = dict(small_corpus)["triangle"]
        model = LoadModel(tri.load_vertices, [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(GridTreeError, match=f"returned {found} trees"):
            DETECTORS["enum"](tri, Placement(edges), model, reading, (), None)

    @pytest.mark.parametrize("bad", [-1, 13, 12.0])
    def test_unknown_sensor_id_raises(self, island, bad):
        # -1 would index from the end and read edge 12's flow; 13 and 12.0 are not edges
        with pytest.raises(UnknownEdgeError):
            detect_enumeration_oracle(
                island.graph, Placement((6, 7, 10, bad)), island.load_model.means, np.ones(4), island.tau
            )

    def test_wrong_load_count_raises(self, island):
        # four loads for five load vertices used to match no tree and return ()
        with pytest.raises(ModelError, match="one load per load vertex required"):
            detect_enumeration_oracle(
                island.graph, Placement((6, 7, 10, 12)), np.ones(4), np.ones(4)
            )


class TestDetectMap:
    def test_exact_observation_zero_noise(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        for tree in tau_trees[::11]:
            s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
            r = detect_map(island.graph, pl, island.load_model, s, restriction=island.tau)
            assert r.tree.edge_ids == tree.edge_ids
            assert r.iterations == 44

    def test_beats_uniform_guessing_at_high_noise(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        sigma = 0.5
        model = island.load_model.with_stddev(sigma)
        cache = HypothesisCache(island.graph, pl, model)
        cols = list(pl.edge_ids)
        rng = np.random.default_rng(21)
        misses = 0
        trials = 1000
        for i in range(trials):
            true = tau_trees[rng.integers(len(tau_trees))]
            x = model.means + sigma * rng.standard_normal(5)
            s = tree_edge_flows(island.graph, true, x)[cols]
            r = detect_map(island.graph, pl, model, s, restriction=island.tau, cache=cache)
            misses += r.tree.edge_ids != true.edge_ids
        assert misses / trials < 1 - 1 / 44

    def test_all_zero_observation_returns_slack_hypothesis(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.3)
        r = detect_map(island.graph, pl, model, np.zeros(4), restriction=island.tau)
        # the complement of the placement explains all-zero readings exactly;
        # every other hypothesis survives with a (much) lower density
        assert r.tree.edge_ids == frozenset(range(13)) - pl.edge_set
        assert r.iterations == 44

    def test_no_feasible_hypothesis(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        s = hypothesis_flow(island.graph, tau_trees[0], pl, island.load_model.means)
        with pytest.raises(NoFeasibleHypothesisError):
            detect_map(island.graph, pl, island.load_model, s + 0.5, restriction=island.tau)

    def test_given_hypotheses_pick_the_first_best_in_list_order(self, island, tau_trees):
        # one sensor and exact loads: two trees explain the reading exactly
        # (a rank-0 Gaussian scores 0.0), every other tree scores -inf
        pl = Placement((6,))
        model = island.load_model
        s = hypothesis_flow(island.graph, tau_trees[7], pl, model.means)
        cache = HypothesisCache(island.graph, pl, model)
        tied = [t for t in tau_trees if cache.loglik(t, s) == 0.0]
        assert len(tied) == 2
        r = detect_map(island.graph, pl, model, s, restriction=island.tau, cache=cache)
        assert r.tree == tied[0]  # the earlier tree in enumeration order
        assert r.log_likelihood == 0.0
        assert r.iterations == 44
        assert r.pruned == 44 - 2


def test_first_best_per_column():
    inf = float("inf")
    scores = np.array([[-inf, 1.0, 2.0, -inf], [-inf, 3.0, 2.0, 0.0], [-inf, 3.0, 1.0, -inf]])
    assert _first_best(scores).tolist() == [-1, 1, 0, 1]
    assert _first_best(np.zeros((0, 3))).tolist() == [-1, -1, -1]
    assert int(_first_best(np.array([-inf, 5.0, 5.0]))) == 1
    assert int(_first_best(np.zeros(0))) == -1


class TestZeroFlowMap:
    def test_transform_unimodular_for_every_hypothesis(self, island, tau_trees, tau_placements):
        for pl in tau_placements[::9][:5]:
            J = zero_flow_transform(island.graph, pl)
            for tree in tau_trees:
                stat = zero_flow_statistic(island.graph, pl, island.load_model, tree, J=J)
                assert abs(abs(stat.transform_determinant()) - 1.0) < 1e-9

    def test_transform_of_another_placement_rejected(self, island, tau_trees, tau_placements):
        # placement 5's J passed with placement 0 used to give a statistic
        # whose transform determinant read -1.0 instead of +1.0
        g, model, tree = island.graph, island.load_model, tau_trees[0]
        Js = [zero_flow_transform(g, pl) for pl in tau_placements]
        refused = 0
        for i, j in itertools.permutations(range(len(Js)), 2):
            pl, J = tau_placements[i], Js[j]
            if np.array_equal(J, Js[i]):
                zero_flow_statistic(g, pl, model, tree, J=J)
            else:
                with pytest.raises(InvalidPlacementError, match="zero-flow transform"):
                    zero_flow_statistic(g, pl, model, tree, J=J)
                refused += 1
        assert refused == 1820  # of 1,892 ordered pairs; the other 72 share one J

    def test_transform_of_the_wrong_shape_rejected(self, island, tau_trees):
        # each used to raise a bare IndexError or ValueError from numpy
        pl = Placement((6, 7, 10, 12))
        J = zero_flow_transform(island.graph, pl)
        for wrong in (J[:-1], J[:, :3], J.T, np.vstack([J, J[:1]])):
            with pytest.raises(InvalidPlacementError, match="zero-flow transform"):
                zero_flow_statistic(island.graph, pl, island.load_model, tau_trees[0], J=wrong)

    def test_matches_map_on_random_scenarios(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        rng = np.random.default_rng(14)
        for sigma in (0.05, 0.2, 0.5):
            model = island.load_model.with_stddev(sigma)
            for _ in range(10):
                true = tau_trees[rng.integers(len(tau_trees))]
                x = model.means + sigma * rng.standard_normal(5)
                s = tree_edge_flows(island.graph, true, x)[list(pl.edge_ids)]
                a = detect_map(island.graph, pl, model, s, restriction=island.tau)
                b = detect_zero_flow_map(island.graph, pl, model, s, restriction=island.tau)
                assert a.tree.edge_ids == b.tree.edge_ids
                assert a.log_likelihood == pytest.approx(b.log_likelihood, abs=1e-8)

    def test_ranking_matches_map(self, island, tau_trees):
        # both scores induce the same hypothesis ordering, not just argmax
        pl = Placement((6, 7, 10, 12))
        sigma = 0.2
        model = island.load_model.with_stddev(sigma)
        cache = HypothesisCache(island.graph, pl, model)
        rng = np.random.default_rng(5)
        true = tau_trees[17]
        x = model.means + sigma * rng.standard_normal(5)
        s = tree_edge_flows(island.graph, true, x)[list(pl.edge_ids)]
        map_ll = np.array([cache.loglik(t, s) for t in tau_trees])
        from gridtree import relaxed_flow_solution

        f_o = relaxed_flow_solution(island.graph, pl, model.means, s)
        J = zero_flow_transform(island.graph, pl)
        zf_ll = []
        for t in tau_trees:
            stat = zero_flow_statistic(island.graph, pl, model, t, J=J)
            rg = ReducedGaussian(np.zeros(len(stat.indices)), stat.covariance)
            zf_ll.append(rg.logpdf(f_o[list(stat.indices)]))
        zf_ll = np.array(zf_ll)
        finite = np.isfinite(map_ll) & np.isfinite(zf_ll)
        assert np.array_equal(np.isfinite(map_ll), np.isfinite(zf_ll))
        assert np.allclose(map_ll[finite], zf_ll[finite], atol=1e-8)

    def test_zero_noise_selects_truth(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        tree = tau_trees[9]
        s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
        r = detect_zero_flow_map(island.graph, pl, island.load_model, s, restriction=island.tau)
        assert r.tree.edge_ids == tree.edge_ids

    def test_no_feasible_hypothesis(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        s = hypothesis_flow(island.graph, tau_trees[0], pl, island.load_model.means)
        with pytest.raises(NoFeasibleHypothesisError):
            detect_zero_flow_map(island.graph, pl, island.load_model, s + 0.5, restriction=island.tau)

    def test_oversized_placement_rejected(self, island):
        with pytest.raises(UnsupportedPlacementError):
            detect_zero_flow_map(
                island.graph, Placement((6, 7, 10, 12, 4)), island.load_model, np.zeros(5)
            )

    def test_invalid_placement_rejected(self, island):
        # as many sensors as the circuit rank, but the unmeasured edges hold a cycle
        with pytest.raises(InvalidPlacementError):
            detect_zero_flow_map(island.graph, Placement((0, 1, 2, 3)), island.load_model, np.zeros(4))


class TestFmst:
    def test_zero_noise_equals_deterministic(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        for tree in tau_trees[::13]:
            s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
            a = detect_fmst(island.graph, pl, island.load_model, s, required_edges=island.tau)
            b = detect_deterministic(
                island.graph, pl, island.load_model.means, s, required_edges=island.tau
            )
            assert a.tree.edge_ids == b.tree.edge_ids

    def test_adversarial_forecast_breaks_fmst_not_map(self, island, tau_trees):
        # a badly wrong forecast on one island shrinks the forecast flow on a
        # true-tree edge below a co-tree alternative, misleading the greedy
        # tree while the exact likelihood search still recovers the truth
        pl = Placement((6, 7, 10, 12))
        true = tau_trees[19]
        s = hypothesis_flow(island.graph, true, pl, np.ones(5))
        xhat = np.ones(5)
        xhat[1] -= 0.9
        model = LoadModel(island.load_model.nodes, xhat, np.full(5, 0.09))
        a = detect_fmst(island.graph, pl, model, s, required_edges=island.tau)
        b = detect_map(island.graph, pl, model, s, restriction=island.tau)
        assert b.tree.edge_ids == true.edge_ids
        assert a.tree.edge_ids != b.tree.edge_ids


    def test_cache_gives_same_result(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.3)
        cache = HypothesisCache(island.graph, pl, model)
        rng = np.random.default_rng(12)
        for tree in tau_trees[::7]:
            x = model.means + 0.3 * rng.standard_normal(5)
            s = hypothesis_flow(island.graph, tree, pl, x)
            cold = detect_fmst(island.graph, pl, model, s, required_edges=island.tau)
            warm = detect_fmst(island.graph, pl, model, s, required_edges=island.tau, cache=cache)
            assert warm == cold


class TestNonFiniteObservation:
    PL = Placement((6, 7, 10, 12))

    def _obs(self, island, tau_trees, bad):
        s = hypothesis_flow(island.graph, tau_trees[0], self.PL, island.load_model.means)
        s[1] = bad
        return s

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_model_detectors_reject(self, island, tau_trees, bad):
        model = island.load_model.with_stddev(0.2)
        s = self._obs(island, tau_trees, bad)
        g, pl, tau = island.graph, self.PL, island.tau
        calls = [
            lambda: detect_map(g, pl, model, s, restriction=tau),
            lambda: detect_zero_flow_map(g, pl, model, s, restriction=tau),
            lambda: detect_fmst(g, pl, model, s, required_edges=tau),
            lambda: detect_cycle_descent(g, pl, model, s, required_edges=tau),
            lambda: local_map_search(g, pl, model, s, tau_trees[0], required_edges=tau),
        ]
        for call in calls:
            with pytest.raises(ModelError, match="finite"):
                call()

    def test_load_detectors_reject(self, island, tau_trees):
        means = island.load_model.means
        s = self._obs(island, tau_trees, float("nan"))
        with pytest.raises(ModelError):
            detect_deterministic(island.graph, self.PL, means, s, island.tau)
        with pytest.raises(ModelError):
            detect_enumeration_oracle(island.graph, self.PL, means, s, island.tau)
        good = self._obs(island, tau_trees, 0.0)
        bad_loads = means.copy()
        bad_loads[0] = float("inf")
        with pytest.raises(ModelError):
            detect_deterministic(island.graph, self.PL, bad_loads, good, island.tau)


class TestFeasibleTree:
    def test_pattern_satisfied_for_all_exact_observations(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        for tree in tau_trees:
            s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
            t0 = feasible_tree(island.graph, s, pl, required_edges=island.tau)
            for k, eid in enumerate(pl.edge_ids):
                if abs(s[k]) > 1e-9:
                    assert eid in t0.edge_ids
                else:
                    assert eid not in t0.edge_ids

    def test_zero_observation_avoids_sensed_edge(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        t0 = feasible_tree(tri, [0.0], Placement((1,)))
        assert 1 not in t0.edge_ids

    def test_contradictory_pattern_rejected(self, island):
        # nonzero readings on both feeder drops of v1 cannot both be tree
        # edges: together with the root edges they close a cycle
        pl = Placement((5, 6, 10, 12))
        s = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(InconsistentObservationError):
            feasible_tree(island.graph, s, pl, required_edges=island.tau)

    def test_mandatory_edge_reading_zero_rejected(self, island):
        with pytest.raises(InconsistentObservationError, match="mandatory edge"):
            feasible_tree(island.graph, np.zeros(4), Placement((6, 7, 10, 12)), required_edges={6})

    @pytest.mark.parametrize("count", [3, 5])
    def test_reading_count_must_match_sensors(self, island, count):
        with pytest.raises(InvalidPlacementError, match="one observation per sensor"):
            feasible_tree(island.graph, np.ones(count), Placement((6, 7, 10, 12)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_readings_rejected(self, island, bad):
        with pytest.raises(ModelError):
            feasible_tree(island.graph, [1.0, bad, 0.0, 1.0], Placement((6, 7, 10, 12)))


class TestCycleDescent:
    def test_pinned_pattern_recovers_truth(self, island, tau_trees):
        # sensors on the true co-tree read all zeros, which pins the start
        # tree to the truth; no exchange can improve an exact match
        for tree in tau_trees[::11]:
            pl = Placement(tuple(sorted(tree.cotree(island.graph))))
            s = hypothesis_flow(island.graph, tree, pl, island.load_model.means)
            model = island.load_model.with_stddev(0.05)
            r = detect_cycle_descent(
                island.graph, pl, model, s, required_edges=island.tau
            )
            assert r.tree.edge_ids == tree.edge_ids
            assert r.converged

    def test_loglik_never_below_start(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        sigma = 0.3
        model = island.load_model.with_stddev(sigma)
        cache = HypothesisCache(island.graph, pl, model)
        rng = np.random.default_rng(31)
        for _ in range(20):
            true = tau_trees[rng.integers(len(tau_trees))]
            x = model.means + sigma * rng.standard_normal(5)
            s = tree_edge_flows(island.graph, true, x)[list(pl.edge_ids)]
            t0 = feasible_tree(island.graph, s, pl, required_edges=island.tau)
            r = detect_cycle_descent(
                island.graph, pl, model, s, cache=cache, required_edges=island.tau
            )
            assert r.log_likelihood >= cache.loglik(t0, s)
            assert r.converged

    def test_agreement_fraction_with_map_reported(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        sigma = 0.1
        model = island.load_model.with_stddev(sigma)
        cache = HypothesisCache(island.graph, pl, model)
        rng = np.random.default_rng(7)
        agree = 0
        trials = 60
        for _ in range(trials):
            true = tau_trees[rng.integers(len(tau_trees))]
            x = model.means + sigma * rng.standard_normal(5)
            s = tree_edge_flows(island.graph, true, x)[list(pl.edge_ids)]
            a = detect_map(island.graph, pl, model, s, restriction=island.tau, cache=cache)
            b = detect_cycle_descent(
                island.graph, pl, model, s, cache=cache, required_edges=island.tau
            )
            agree += a.tree.edge_ids == b.tree.edge_ids
        fraction = agree / trials
        assert 0.5 <= fraction <= 1.0


class TestDeterminism:
    def test_identical_inputs_identical_results(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        sigma = 0.3
        model = island.load_model.with_stddev(sigma)
        rng = np.random.default_rng(55)
        true = tau_trees[7]
        x = model.means + sigma * rng.standard_normal(5)
        s = tree_edge_flows(island.graph, true, x)[list(pl.edge_ids)]
        runs = []
        for _ in range(2):
            runs.append(
                (
                    detect_map(island.graph, pl, model, s, restriction=island.tau),
                    detect_zero_flow_map(island.graph, pl, model, s, restriction=island.tau),
                    detect_fmst(island.graph, pl, model, s, required_edges=island.tau),
                    detect_cycle_descent(island.graph, pl, model, s, required_edges=island.tau),
                    detect_deterministic(
                        island.graph, pl, x, s, required_edges=island.tau
                    ),
                )
            )
        for a, b in zip(*runs):
            assert a.tree.edge_ids == b.tree.edge_ids
            assert a.log_likelihood == b.log_likelihood
            assert a.csv_row() == b.csv_row()


class TestLocalSearch:
    def test_map_output_is_local_optimum(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        sigma = 0.2
        model = island.load_model.with_stddev(sigma)
        rng = np.random.default_rng(9)
        for _ in range(10):
            true = tau_trees[rng.integers(len(tau_trees))]
            x = model.means + sigma * rng.standard_normal(5)
            s = tree_edge_flows(island.graph, true, x)[list(pl.edge_ids)]
            m = detect_map(island.graph, pl, model, s, restriction=island.tau)
            r = local_map_search(
                island.graph, pl, model, s, m.tree, required_edges=island.tau
            )
            assert r.tree.edge_ids == m.tree.edge_ids

    def test_neighborhood_size_bound(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.2)
        seed = tau_trees[3]
        basis = fundamental_cycle_basis(island.graph, seed)
        bound = sum(len(c) - 1 for c in basis.cycles)
        s = hypothesis_flow(island.graph, seed, pl, model.means)
        r = local_map_search(island.graph, pl, model, s, seed)
        assert r.iterations - 1 <= bound

    def test_never_hurts_fmst_seed(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        sigma = 0.3
        model = island.load_model.with_stddev(sigma)
        cache = HypothesisCache(island.graph, pl, model)
        rng = np.random.default_rng(19)
        seed_misses = refined_misses = 0
        for _ in range(200):
            true = tau_trees[rng.integers(len(tau_trees))]
            x = model.means + sigma * rng.standard_normal(5)
            s = tree_edge_flows(island.graph, true, x)[list(pl.edge_ids)]
            f = detect_fmst(island.graph, pl, model, s, required_edges=island.tau)
            r = local_map_search(
                island.graph, pl, model, s, f.tree, cache=cache, required_edges=island.tau
            )
            seed_misses += f.tree.edge_ids != true.edge_ids
            refined_misses += r.tree.edge_ids != true.edge_ids
        assert refined_misses <= seed_misses

    def test_required_edges_checked(self, island, tau_trees):
        # each of these used to return a tree; the last one outside the restriction, at -inf
        g, pl = island.graph, Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.2)
        s = hypothesis_flow(g, tau_trees[0], pl, model.means)
        for bad in ({99}, {0.0}, {-1}):
            with pytest.raises(UnknownEdgeError):
                local_map_search(g, pl, model, s, tau_trees[0], required_edges=bad)
        with pytest.raises(InfeasibleConstraintError):
            local_map_search(g, pl, model, s, tau_trees[0], required_edges=range(g.n_edges))
        outside = next(t for t in enumerate_spanning_trees(g) if not island.tau <= t.edge_ids)
        with pytest.raises(InfeasibleConstraintError):
            local_map_search(g, pl, model, s, outside, required_edges=island.tau)


class TestBankMemory:
    def test_walks_hold_neighbour_rows_only_for_the_trees_they_visit(self):
        # a bank over all 100,352 trees of the 4x4 lattice: a dense neighbour
        # table over them would take 129 MB; the walks visit a few dozen trees
        graph = lattice_graph(4)
        placement, model, s, _ = _snapshot(graph, np.random.default_rng(5))
        cache = HypothesisCache(graph, placement, model)
        bank = HypothesisBank(cache, trees=list(enumerate_spanning_trees(graph)), readings=s[None])
        tracemalloc.start()
        try:
            starts = bank.starts()
            picks = _descent_walk(bank, starts)[0]
            _local_walk(bank, picks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert starts[0] >= 0
        assert peak < 8e6


class TestZeroFlowCache:
    def test_cache_gives_same_result(self, island, tau_trees):
        pl = Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.3)
        cache = HypothesisCache(island.graph, pl, model)
        rng = np.random.default_rng(13)
        for tree in tau_trees[::7]:
            x = model.means + 0.3 * rng.standard_normal(5)
            s = hypothesis_flow(island.graph, tree, pl, x)
            cold = detect_zero_flow_map(island.graph, pl, model, s, island.tau)
            warm = detect_zero_flow_map(island.graph, pl, model, s, island.tau, cache=cache)
            assert warm == cold

    def test_hypotheses_enumerated_once_per_restriction(self, island, tau_trees):
        cache = HypothesisCache(island.graph, Placement((6, 7, 10, 12)), island.load_model)
        first = cache.hypotheses(island.tau)
        assert first == tau_trees
        assert cache.hypotheses(set(island.tau)) is first
        assert len(cache.hypotheses()) > len(first)
