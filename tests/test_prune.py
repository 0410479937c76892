"""Exact sensor-support pruning in detect_map and the HypothesisBank behind
detect_cycle_descent and local_map_search: a tree lacking an edge whose
sensor reads above the threshold scores -inf, and skipping it changes no
result field."""

import numpy as np
import pytest

import gridtree.detect
from gridtree import (
    GridTreeError,
    InfeasibleConstraintError,
    InvalidPlacementError,
    LoadModel,
    ModelError,
    NoFeasibleHypothesisError,
    Placement,
    SpanningTree,
    count_spanning_trees,
    detect_cycle_descent,
    detect_deterministic,
    detect_enumeration_oracle,
    detect_fmst,
    detect_map,
    detect_zero_flow_map,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    hypothesis_flow,
    local_map_search,
    max_weight_spanning_tree,
    tree_to_placement,
    UnknownEdgeError,
)
from gridtree.detect import HypothesisCache, _sensor_support
from conftest import lattice_graph


@pytest.fixture(scope="module")
def lattice3():
    return lattice_graph(3)


@pytest.fixture(scope="module")
def lattice4():
    return lattice_graph(4)


def _random_tree(graph, rng, required=()):
    return max_weight_spanning_tree(graph, rng.random(graph.n_edges), required)


def _snapshot(graph, rng, sigma=0.2, placement=None, required=()):
    """(placement, model, readings, true tree) of one seeded noisy-load draw."""
    if placement is None:  # minimal valid: the complement of a random tree
        placement = tree_to_placement(graph, _random_tree(graph, rng))
    means = rng.uniform(0.5, 1.5, len(graph.load_vertices))
    model = LoadModel(graph.load_vertices, means, np.full(len(means), sigma**2))
    true = _random_tree(graph, rng, required)
    loads = means + sigma * rng.standard_normal(len(means))
    return placement, model, hypothesis_flow(graph, true, placement, loads), true


def _near_threshold(model, s, k):
    """``s`` rescaled so that its largest reading is 0.5-4x the pruning floor."""
    floor = 1e-9 * max(1.0, 2.0 * float(np.sum(np.abs(model.means))))
    top = np.max(np.abs(s))
    return s if top == 0 else s / top * floor * (0.5, 1.01, 1.5, 4.0)[k % 4]


class TestUnsupportedTreesScoreMinusInf:
    """Brute force over every tree: a tree without a support edge scores -inf."""

    def _check(self, graph, placement, model, s, trees):
        support = _sensor_support(placement, model, s)
        cache = HypothesisCache(graph, placement, model)
        for tree in trees:
            if not support <= tree.edge_ids:
                assert cache.loglik(tree, s) == float("-inf")
        return len(support)

    def test_island_noisy_loads(self, island):
        g = island.graph
        trees = list(enumerate_spanning_trees(g))
        placements = enumerate_valid_placements(g, island.tau).placements
        rng = np.random.default_rng(3)
        sizes = []
        for k, pl in enumerate(placements[::4]):
            _, model, s, _ = _snapshot(g, rng, placement=pl, required=island.tau)
            sizes.append(self._check(g, pl, model, s, trees))
            sizes.append(self._check(g, pl, model, _near_threshold(model, s, k), trees))
        assert max(sizes) > 0 and min(sizes) == 0  # both pruning and none were exercised

    def test_lattice_noisy_loads(self, lattice3):
        trees = list(enumerate_spanning_trees(lattice3))
        assert len(trees) == 192
        rng = np.random.default_rng(5)
        sizes = []
        for k in range(8):
            pl, model, s, _ = _snapshot(lattice3, rng)
            sizes.append(self._check(lattice3, pl, model, s, trees))
            sizes.append(self._check(lattice3, pl, model, _near_threshold(model, s, k), trees))
        assert max(sizes) > 0 and min(sizes) == 0

    def test_threshold_bounds_every_tolerance(self, lattice3):
        # a reading just above the floor on a sensor outside the tree: every
        # hypothesis tolerance is below it, so the tree is still ruled out
        rng = np.random.default_rng(8)
        pl, model, _, _ = _snapshot(lattice3, rng)
        floor = 1e-9 * max(1.0, 2.0 * float(np.sum(np.abs(model.means))))
        s = np.zeros(len(pl))
        s[0] = 1.0001 * floor
        assert _sensor_support(pl, model, s) == {pl.edge_ids[0]}
        assert _sensor_support(pl, model, s / 1.0002) == frozenset()
        self._check(lattice3, pl, model, s, enumerate_spanning_trees(lattice3))


def _outcome(fn):
    """``fn()``, or the type of the GridTreeError it raised."""
    try:
        return fn()
    except GridTreeError as exc:
        return type(exc)


class TestPruningChangesNoResult:
    """The three pruned detectors, with and without the prune, field by field."""

    @staticmethod
    def _run_all(graph, pl, model, s, required):
        seed = detect_fmst(graph, pl, model, s, required).tree
        return (
            _outcome(lambda: detect_map(graph, pl, model, s, required)),
            _outcome(lambda: detect_cycle_descent(graph, pl, model, s, required_edges=required)),
            _outcome(lambda: local_map_search(graph, pl, model, s, seed, required_edges=required)),
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_same_results_unpruned(self, n, lattice3, lattice4, monkeypatch):
        graph = {3: lattice3, 4: lattice4}[n]
        rng = np.random.default_rng(40 + n)
        cases = []
        for k in range(8):
            pl, model, s, true = _snapshot(graph, rng)
            if k % 4 == 3:
                s = s + 1e-6 * rng.standard_normal(len(s))  # no tree matches exactly
            # the 4x4 lattice has 100,352 trees: MAP searches those holding
            # all but four edges of the true tree
            restriction = frozenset() if n == 3 else frozenset(sorted(true.edge_ids)[4:])
            cases.append((pl, model, s, restriction))
        pruned = [self._run_all(graph, *case) for case in cases]
        assert all(_sensor_support(pl, model, s) for pl, model, s, _ in cases)
        # no reading is a support reading: nothing is pruned anywhere
        monkeypatch.setattr(gridtree.detect, "_sensor_support", lambda placement, model, s: frozenset())
        unpruned = [self._run_all(graph, *case) for case in cases]
        assert pruned == unpruned


class TestPrunedTreesNotBuilt:
    def test_map_builds_only_trees_holding_the_support(self, island, monkeypatch):
        g = island.graph
        pl = Placement((6, 7, 10, 12))
        trees = list(enumerate_spanning_trees(g, island.tau))
        true = trees[17]
        s = hypothesis_flow(g, true, pl, island.load_model.means)
        support = {e for e, v in zip(pl.edge_ids, s) if abs(v) > 1e-6}
        holding = sum(support <= t.edge_ids for t in trees)
        assert 0 < holding < 44
        builds = []  # fills of the per-tree memo of private-load laws
        init = gridtree.detect._PrivateLoads.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(gridtree.detect._PrivateLoads, "__init__", counting_init)
        model = island.load_model.with_stddev(0.2)
        r = detect_map(g, pl, model, s, restriction=island.tau)
        assert r.tree == true
        assert (r.iterations, len(builds)) == (44, holding)


class TestSupportOnlyEnumeration:
    """``detect_map`` enumerates the trees holding ``restriction`` and the
    sensor support, and counts the rest."""

    def test_cyclic_support_raises_no_feasible_hypothesis(self, island, lattice3):
        g, pl = island.graph, Placement((5, 6, 10, 12))
        model = island.load_model.with_stddev(0.2)
        s = np.array([1.0, 1.0, 0.0, 0.0])
        support = _sensor_support(pl, model, s)
        assert support == {5, 6}
        with pytest.raises(InfeasibleConstraintError):  # vr-F2-v1-F1-vr with root edges 0 and 1
            list(enumerate_spanning_trees(g, island.tau | support))
        assert count_spanning_trees(g, island.tau) == 44
        with pytest.raises(NoFeasibleHypothesisError):
            detect_map(g, pl, model, s, restriction=island.tau)
        # the support alone closing a cycle: the lattice's sensor edges hold one
        pl = Placement(tuple(range(lattice3.n_edges)))
        model = LoadModel(lattice3.load_vertices, np.ones(8), np.full(8, 0.04))
        with pytest.raises(NoFeasibleHypothesisError):
            detect_map(lattice3, pl, model, np.ones(lattice3.n_edges))

    def test_restriction_errors_are_unchanged(self, island):
        g, pl = island.graph, Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.2)
        s = hypothesis_flow(g, next(enumerate_spanning_trees(g, island.tau)), pl, model.means)
        with pytest.raises(InfeasibleConstraintError):
            detect_map(g, pl, model, s, restriction=range(g.n_edges))
        with pytest.raises(UnknownEdgeError):
            detect_map(g, pl, model, s, restriction=[g.n_edges])

    def test_iterations_count_and_pruned_on_the_lattice(self, lattice3):
        rng = np.random.default_rng(61)
        trees = list(enumerate_spanning_trees(lattice3))
        for _ in range(6):
            pl, model, s, _ = _snapshot(lattice3, rng)
            cache = HypothesisCache(lattice3, pl, model)
            scores = [cache.loglik(t, s) for t in trees]
            r = detect_map(lattice3, pl, model, s)
            assert r.iterations == 192
            assert r.pruned == scores.count(float("-inf"))
            assert r.tree == trees[int(np.argmax(scores))]


class TestPrunedCallsStillCheckInputs:
    """A call may build no Gaussian, so its inputs are checked up front."""

    def test_reading_count_must_match_sensors(self, island):
        g, pl = island.graph, Placement((6, 7, 10, 12))
        model = island.load_model.with_stddev(0.2)
        tree = next(enumerate_spanning_trees(g, island.tau))
        for s in (np.ones(3), np.array([1.0, 0.0, 0.0, 0.0, 5.0]), 1.0, np.ones((1, 4)), [1.0]):
            for call in (
                lambda: detect_map(g, pl, model, s, restriction=island.tau),
                lambda: local_map_search(g, pl, model, s, tree),
                lambda: detect_fmst(g, pl, model, s),
                lambda: detect_cycle_descent(g, pl, model, s),
                lambda: detect_zero_flow_map(g, pl, model, s),
                lambda: detect_deterministic(g, pl, model.means, s),
                lambda: detect_enumeration_oracle(g, pl, model.means, s),
            ):
                with pytest.raises(InvalidPlacementError, match="one observation per sensor"):
                    call()

    def test_mismatched_model_raises_when_every_tree_is_pruned(self, island):
        g = island.graph
        pl = Placement((5, 6, 10, 12))
        wrong = LoadModel(("a", "b", "c", "d", "e"), np.ones(5), np.full(5, 0.04))
        s = np.array([1.0, 1.0, 0.0, 0.0])
        support = _sensor_support(pl, wrong, s)
        assert support == {5, 6}  # a cycle with the root edges: no tree holds it
        with pytest.raises(InfeasibleConstraintError):
            list(enumerate_spanning_trees(g, island.tau | support))
        with pytest.raises(ModelError):
            detect_map(g, pl, wrong, s, restriction=island.tau)
        with pytest.raises(ModelError):
            local_map_search(g, pl, wrong, s, SpanningTree(frozenset(range(13)) - pl.edge_set))
