import itertools
import math

import numpy as np
import pytest

from gridtree import (
    InvalidPlacementError,
    LoadModel,
    ModelError,
    Placement,
    SpanningTree,
    build_incidence,
    consumption_vector,
    cv_scaling,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    hypothesis_flow,
    hypothesis_flow_distribution,
    observation_matrix,
    observation_matrix_from_incidence,
    relaxed_flow_solution,
    tree_edge_flows,
    zero_flow_transform,
)
from gridtree import NotASpanningTreeError, UnknownEdgeError, is_spanning_tree
from gridtree import max_weight_spanning_tree, tree_to_placement
from conftest import lattice_graph, random_connected_graph

UNIT_LOADS = np.ones(4)


class TestLoadModel:
    def test_negative_variance_rejected(self):
        with pytest.raises(ModelError):
            LoadModel(("a",), np.array([1.0]), np.array([-0.1]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ModelError, match="finite"):
            LoadModel(("a", "b"), np.array([1.0, bad]), np.array([0.1, 0.1]))
        with pytest.raises(ModelError, match="finite"):
            LoadModel(("a", "b"), np.array([1.0, 1.0]), np.array([0.1, bad]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            LoadModel(("a", "b"), np.array([1.0]), np.array([0.1]))

    def test_with_stddev_and_cv(self, island):
        m = island.load_model.with_stddev(0.2)
        assert np.allclose(m.variances, 0.04)
        m2 = island.load_model.with_cv(10.0)
        assert np.allclose(m2.stddevs, 0.1 * island.load_model.means)

    @pytest.mark.parametrize("spread", ["with_stddev", "with_cv"])
    def test_negative_spread_rejected(self, island, spread):
        with pytest.raises(ModelError, match="negative"):
            getattr(island.load_model, spread)(-0.1)

    def test_node_order_checked_against_graph(self, island):
        wrong = LoadModel(("v5", "v4", "v3", "v2", "v1"), np.ones(5), np.zeros(5))
        with pytest.raises(ModelError):
            wrong.check_graph(island.graph)


class TestConsumptionVector:
    def test_sums_to_zero_with_root_total(self, example_graph):
        y = consumption_vector(example_graph, UNIT_LOADS)
        assert y[example_graph.root_index] == pytest.approx(4.0)
        assert y.sum() == pytest.approx(0.0)

    def test_one_load_per_load_vertex(self, example_graph):
        with pytest.raises(ModelError, match="one load per load vertex"):
            consumption_vector(example_graph, np.ones(3))

    def test_island_feeders_carry_nothing(self, island):
        y = consumption_vector(island.graph, island.load_model.means)
        for f in ("F1", "F2", "F3", "F4"):
            assert y[island.graph.vertex_index(f)] == 0.0


class TestObservationMatrix:
    def test_island_two_sensor_example(self, island):
        # operating tree: v1 chain under F1, v4 and v3 under F3;
        # sensors at the two feeder drops split the loads 3 / 2
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        gamma = observation_matrix(island.graph, tree, Placement((6, 4)))
        assert np.array_equal(gamma, np.array([[1, 1, 0, 0, 1], [0, 0, 1, 1, 0]]))

    def test_root_edge_sensor_sees_everything(self, example_graph):
        tree = SpanningTree(frozenset({0, 1, 2, 3}))
        gamma = observation_matrix(example_graph, tree, Placement((0,)))
        assert np.array_equal(gamma, np.ones((1, 4)))

    def test_leaf_sensor_sees_one_load(self, example_graph):
        tree = SpanningTree(frozenset({0, 1, 2, 3}))
        gamma = observation_matrix(example_graph, tree, Placement((3,)))
        assert np.array_equal(gamma, np.array([[0, 0, 0, 1]]))

    def test_unused_sensor_row_is_zero(self, example_graph):
        tree = SpanningTree(frozenset({0, 1, 2, 3}))
        gamma = observation_matrix(example_graph, tree, Placement((5,)))
        assert np.array_equal(gamma, np.zeros((1, 4)))

    def test_traversal_route_equals_incidence_route(self, island):
        trees = list(enumerate_spanning_trees(island.graph, island.tau))
        placements = enumerate_valid_placements(island.graph, island.tau).placements[::9][:5]
        for pl in placements:
            for tree in trees:
                a = observation_matrix(island.graph, tree, pl)
                b = observation_matrix_from_incidence(island.graph, tree, pl)
                assert np.allclose(a, b)
        # an unknown sensor id raises on both routes, rather than reading as a co-tree sensor
        for pl in (Placement((-1, 12)), Placement((13,))):
            for route in (observation_matrix, observation_matrix_from_incidence):
                with pytest.raises(UnknownEdgeError):
                    route(island.graph, trees[0], pl)


class TestHypothesisFlow:
    def test_cotree_sensors_read_zero(self, example_graph):
        tree = SpanningTree(frozenset({0, 1, 3, 5}))
        s = hypothesis_flow(example_graph, tree, Placement((2, 4)), UNIT_LOADS)
        assert np.allclose(s, 0.0)

    def test_source_edge_carries_total_load(self, example_graph):
        for tree in enumerate_spanning_trees(example_graph):
            s = hypothesis_flow(example_graph, tree, Placement((0,)), UNIT_LOADS)
            assert s[0] == pytest.approx(4.0)

    def test_reverse_oriented_edge_reads_negative(self, example_graph):
        tree = SpanningTree(frozenset({0, 1, 3, 5}))
        s = hypothesis_flow(example_graph, tree, Placement((5,)), UNIT_LOADS)
        assert s[0] == pytest.approx(-1.0)

    def test_conservation_on_random_trees(self, island):
        rng = np.random.default_rng(2)
        trees = list(enumerate_spanning_trees(island.graph, island.tau))
        B = build_incidence(island.graph)
        for _ in range(10):
            tree = trees[rng.integers(len(trees))]
            x = rng.uniform(0.5, 1.5, size=5)
            f = tree_edge_flows(island.graph, tree, x)
            y = consumption_vector(island.graph, x)
            assert np.allclose(B @ f, y, atol=1e-12)


class TestRelaxedFlow:
    def test_worked_half_unit_example(self, example_graph):
        f = relaxed_flow_solution(example_graph, Placement((4, 5)), UNIT_LOADS, [0.5, 0.5])
        assert np.allclose(f, [4.0, 2.0, 1.0, 0.5, 0.5, 0.5])

    def test_zero_observation_example(self, example_graph):
        f = relaxed_flow_solution(example_graph, Placement((2, 4)), UNIT_LOADS, [0.0, 0.0])
        assert np.allclose(f, [4.0, 1.0, 0.0, 2.0, 0.0, -1.0])

    def test_zero_loads_zero_observation_zero_flow(self, example_graph):
        f = relaxed_flow_solution(example_graph, Placement((4, 5)), np.zeros(4), [0.0, 0.0])
        assert np.allclose(f, 0.0)

    def test_invalid_placement_raises(self, example_graph):
        with pytest.raises(InvalidPlacementError):
            relaxed_flow_solution(example_graph, Placement((0, 1)), UNIT_LOADS, [1.0, 1.0])
        with pytest.raises(InvalidPlacementError):
            relaxed_flow_solution(example_graph, Placement((4,)), UNIT_LOADS, [1.0])

    @pytest.mark.parametrize("bad", [12.0, 99, -1])
    def test_sensor_ids_outside_the_graph(self, island, bad):
        # used to raise a bare IndexError (12.0) or InvalidPlacementError
        pl = Placement((6, 7, 10, bad))
        with pytest.raises(UnknownEdgeError):
            relaxed_flow_solution(island.graph, pl, island.load_model.means, np.zeros(4))
        with pytest.raises(UnknownEdgeError):
            zero_flow_transform(island.graph, pl)

    @pytest.mark.parametrize(
        "loads, readings",
        [
            ([math.nan] * 5, np.zeros(4)),  # used to give NaN on 9 of the 13 edges
            (np.ones(5), [0.0, math.inf, 0.0, 0.0]),
            (np.ones(5), [np.zeros(4), [0.0, 0.0, math.nan, 0.0]]),  # a block's second row
        ],
        ids=["nan-loads", "inf-reading", "nan-in-block"],
    )
    def test_non_finite_rejected(self, island, loads, readings):
        with pytest.raises(ModelError, match="must be finite"):
            relaxed_flow_solution(island.graph, Placement((6, 7, 10, 12)), loads, readings)

    def test_residual_tiny_for_consistent_inputs(self, example_graph):
        f = relaxed_flow_solution(example_graph, Placement((4, 5)), UNIT_LOADS, [0.5, 0.5])
        residual = example_graph.incidence @ f - consumption_vector(example_graph, UNIT_LOADS)
        assert np.max(np.abs(residual)) < 1e-9

    def test_support_is_generating_tree(self, island):
        # feeding exact tree readings back reproduces flows supported on that
        # tree: co-tree entries vanish to solver precision
        rng = np.random.default_rng(8)
        trees = list(enumerate_spanning_trees(island.graph, island.tau))
        placements = enumerate_valid_placements(island.graph, island.tau).placements[:3]
        for pl in placements:
            for tree in trees[::7]:
                x = rng.uniform(0.5, 1.5, size=5)
                s = hypothesis_flow(island.graph, tree, pl, x)
                f = relaxed_flow_solution(island.graph, pl, x, s)
                cot = [e for e in range(island.graph.n_edges) if e not in tree.edge_ids]
                assert np.max(np.abs(f[cot])) < 1e-9 * max(1.0, np.max(np.abs(x)))


class TestBlockRelaxedFlow:
    """A block of observations, one per row, gives each row the same bits as
    solving it alone, so the sweep's one block solve per cell equals the
    per-call ``detect_fmst`` solve."""

    @staticmethod
    def _check(graph, placement, rng, rows=12):
        loads = rng.uniform(0.5, 1.5, len(graph.load_vertices))
        S = rng.standard_normal((rows, len(placement.edge_ids))) * rng.uniform(0.1, 100.0)
        block = relaxed_flow_solution(graph, placement, loads, S)
        alone = np.array([relaxed_flow_solution(graph, placement, loads, s) for s in S])
        assert block.shape == (rows, graph.n_edges)
        assert block.tobytes() == alone.tobytes()

    def test_island_placements(self, island):
        rng = np.random.default_rng(61)
        for pl in enumerate_valid_placements(island.graph, island.tau).placements:
            self._check(island.graph, pl, rng)

    @pytest.mark.parametrize("n", [3, 4])
    def test_lattices(self, n):
        rng = np.random.default_rng(62 + n)
        g = lattice_graph(n)
        for _ in range(10):
            self._check(g, tree_to_placement(g, max_weight_spanning_tree(g, rng.random(g.n_edges))), rng)

    def test_random_multigraphs(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            g = random_connected_graph(rng)
            self._check(g, tree_to_placement(g, max_weight_spanning_tree(g, rng.random(g.n_edges))), rng)

    def test_wrong_width_rejected(self, island):
        pl = Placement((6, 7, 10, 12))
        with pytest.raises(InvalidPlacementError, match="one observation per sensor"):
            relaxed_flow_solution(island.graph, pl, island.load_model.means, np.ones((3, 5)))


class TestHypothesisFlowDistribution:
    def test_zero_variance_model(self, island):
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        mean, cov = hypothesis_flow_distribution(island.graph, tree, Placement((6, 4)), island.load_model)
        assert np.allclose(cov, 0.0)
        assert np.allclose(mean, [3.0, 2.0])

    def test_unit_variance_covariance(self, island):
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        model = island.load_model.with_stddev(1.0)
        _, cov = hypothesis_flow_distribution(island.graph, tree, Placement((6, 4)), model)
        assert np.allclose(cov, [[3.0, 0.0], [0.0, 2.0]])

    def test_source_sensor_variance_sums_loads(self, example_graph):
        model = LoadModel(example_graph.load_vertices, UNIT_LOADS, np.full(4, 0.25))
        tree = SpanningTree(frozenset({0, 1, 2, 3}))
        _, cov = hypothesis_flow_distribution(example_graph, tree, Placement((0,)), model)
        assert cov[0, 0] == pytest.approx(4 * 0.25)

    def test_monte_carlo_covariance_match(self, island):
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 6, 9, 10, 12}))
        pl = Placement((6, 4, 9, 12))
        model = island.load_model.with_stddev(0.3)
        _, cov = hypothesis_flow_distribution(island.graph, tree, pl, model)
        gamma = observation_matrix(island.graph, tree, pl)
        rng = np.random.default_rng(77)
        X = model.means + 0.3 * rng.standard_normal((100_000, 5))
        S = X @ gamma.T
        emp = np.cov(S.T)
        err = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
        assert err < 0.05


class TestCvScaling:
    def test_saturation_level(self):
        assert cv_scaling(1e12) == pytest.approx(math.sqrt(41.9), rel=1e-6)

    def test_reference_point(self):
        assert cv_scaling(3562.0) == pytest.approx(math.sqrt(42.9))

    def test_monotone_decreasing(self):
        ws = [10, 100, 1000, 10000, 100000]
        vals = [cv_scaling(w) for w in ws]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        # cv_scaling(nan) used to return nan
        with pytest.raises(ModelError, match="finite"):
            cv_scaling(bad)

    def test_domain_error(self):
        with pytest.raises(ModelError):
            cv_scaling(0.0)
        with pytest.raises(ModelError):
            cv_scaling(-5.0)


class TestIslandFixture:
    def test_cardinalities(self, island):
        assert island.graph.n_vertices == 10
        assert island.graph.n_edges == 13
        assert len(island.tau) == 4
        assert island.graph.load_vertices == ("v1", "v2", "v3", "v4", "v5")

    def test_default_loads(self, island):
        assert np.array_equal(island.load_model.means, np.ones(5))
        assert np.array_equal(island.load_model.variances, np.zeros(5))

    def test_tau_edges_touch_root(self, island):
        for eid in island.tau:
            assert "vr" in island.graph.edges[eid]


class TestRejectsEdgeSetsThatAreNotTrees:
    """A spanning edge set with a cycle used to give numbers from an arbitrary DFS tree."""

    @staticmethod
    def _non_trees(graph):
        nine = next(
            c for c in itertools.combinations(range(graph.n_edges), graph.n_vertices - 1)
            if not is_spanning_tree(graph, c)
        )
        return [range(graph.n_edges), (0, 1, 2), nine]

    def test_observation_matrix(self, island):
        pl = Placement((6, 7, 10, 12))
        for edges in self._non_trees(island.graph):
            with pytest.raises(NotASpanningTreeError):
                observation_matrix(island.graph, SpanningTree(frozenset(edges)), pl)

    def test_tree_edge_flows(self, island):
        for edges in self._non_trees(island.graph):
            with pytest.raises(NotASpanningTreeError):
                tree_edge_flows(island.graph, SpanningTree(frozenset(edges)), island.load_model.means)

    def test_hypothesis_distribution(self, island):
        every_edge = SpanningTree(frozenset(range(island.graph.n_edges)))
        with pytest.raises(NotASpanningTreeError):
            hypothesis_flow_distribution(
                island.graph, every_edge, Placement((6, 7, 10, 12)), island.load_model
            )


class TestTreeInputsChecked:
    """Inputs that used to give numbers instead of an error."""

    def test_tree_edge_flows_needs_one_load_per_load_vertex(self, island):
        tree = next(enumerate_spanning_trees(island.graph, island.tau))
        for loads in (np.ones(4), np.ones(6)):
            with pytest.raises(ModelError, match="one load per load vertex required"):
                tree_edge_flows(island.graph, tree, loads)
            with pytest.raises(ModelError, match="one load per load vertex required"):
                hypothesis_flow(island.graph, tree, Placement((11,)), loads)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, island, bad):
        # each used to answer with NaN or infinite numbers
        tree = next(enumerate_spanning_trees(island.graph, island.tau))
        loads = np.ones(5)
        loads[2] = bad
        calls = [
            lambda: consumption_vector(island.graph, loads),
            lambda: tree_edge_flows(island.graph, tree, loads),
            lambda: hypothesis_flow(island.graph, tree, Placement((6, 7, 10, 12)), loads),
        ]
        for call in calls:
            with pytest.raises(ModelError, match="loads must be finite"):
                call()

    def test_edge_ids_outside_the_graph(self, island):
        g = island.graph
        tree = next(t for t in enumerate_spanning_trees(g, island.tau) if 11 in t.edge_ids)
        for bad in (-2, g.n_edges):  # -2 used to index edge 11 from the end
            wrong = SpanningTree((tree.edge_ids - {11}) | {bad})
            with pytest.raises(UnknownEdgeError):
                observation_matrix(g, wrong, Placement((11,)))

    def test_edge_ids_that_are_not_integers(self, island):
        g = island.graph
        tree = SpanningTree(frozenset({0, 1, 2, 3, 4, 5, 8, 9, 11}))
        assert is_spanning_tree(g, tree.edge_ids)
        wrong = SpanningTree((tree.edge_ids - {0}) | {0.0})  # used to raise a bare TypeError
        with pytest.raises(UnknownEdgeError, match="unknown edge id 0.0"):
            observation_matrix(g, wrong, Placement((11,)))
        with pytest.raises(UnknownEdgeError, match="unknown edge id 0.0"):
            tree_edge_flows(g, wrong, np.ones(5))
