import itertools

import numpy as np
import pytest

from gridtree import (
    InvalidPlacementError,
    ModelError,
    Placement,
    SpanningTree,
    UnknownEdgeError,
    count_spanning_trees,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    hypothesis_flow,
    is_valid_placement,
    minimum_sensor_count,
    naive_identifiability_oracle,
    placement_to_tree,
    tree_placement_bijection,
    tree_to_placement,
)


class TestValidity:
    def test_cotree_placements_valid(self, island):
        for tree in list(enumerate_spanning_trees(island.graph, island.tau))[:10]:
            pl = tree_to_placement(island.graph, tree)
            assert is_valid_placement(island.graph, pl)

    def test_wrong_size_invalid(self, island):
        assert not is_valid_placement(island.graph, Placement((4, 5, 6)))
        assert not is_valid_placement(island.graph, Placement((4, 5, 6, 7, 8)))

    def test_example_graph_placement(self, example_graph):
        assert is_valid_placement(example_graph, Placement((4, 5)))
        assert not is_valid_placement(example_graph, Placement((0, 1)))

    def test_duplicate_sensor_edges_rejected(self):
        with pytest.raises(InvalidPlacementError):
            Placement((1, 1))

    def test_list_of_edges_is_the_same_placement(self):
        pl = Placement([6, 7, 10, 12])
        assert pl == Placement((6, 7, 10, 12)) and pl.edge_ids == (6, 7, 10, 12)
        assert hash(pl) == hash(Placement((6, 7, 10, 12)))
        with pytest.raises(InvalidPlacementError):
            Placement([1, 1])


class TestBijection:
    def test_island_tree_maps_to_four_sensors(self, island):
        tree = next(iter(enumerate_spanning_trees(island.graph, island.tau)))
        pl = tree_placement_bijection(island.graph, tree)
        assert isinstance(pl, Placement)
        assert len(pl) == 4 == minimum_sensor_count(island.graph)

    def test_round_trip_is_identity(self, island):
        trees = list(enumerate_spanning_trees(island.graph))[::13][:20]
        for tree in trees:
            pl = tree_placement_bijection(island.graph, tree)
            back = tree_placement_bijection(island.graph, pl)
            assert back.edge_ids == tree.edge_ids

    def test_example_graph_complement(self, example_graph):
        tree = SpanningTree(frozenset({0, 1, 2, 3}))
        assert tree_to_placement(example_graph, tree).edge_ids == (4, 5)

    def test_invalid_placement_rejected(self, island):
        with pytest.raises(InvalidPlacementError):
            placement_to_tree(island.graph, Placement((0, 1, 2, 3)))

    def test_type_dispatch(self, island):
        with pytest.raises(TypeError):
            tree_placement_bijection(island.graph, [0, 1])


class TestEnumerateValidPlacements:
    def test_island_restricted_family_is_44(self, island):
        fam = enumerate_valid_placements(island.graph, island.tau)
        assert len(fam) == 44

    def test_members_valid_and_avoid_forbidden(self, island):
        fam = enumerate_valid_placements(island.graph, island.tau)
        for pl in fam:
            assert is_valid_placement(island.graph, pl)
            assert not (pl.edge_set & island.tau)

    def test_tree_graph_has_single_empty_placement(self):
        from gridtree import Graph

        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        fam = enumerate_valid_placements(g)
        assert len(fam) == 1 and fam.placements[0].edge_ids == ()

    def test_triangle_three_singletons(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        fam = enumerate_valid_placements(tri)
        assert sorted(pl.edge_ids for pl in fam) == [(0,), (1,), (2,)]

    def test_unrestricted_family_size_equals_tree_count(self, island, small_corpus):
        for g in [island.graph] + [g for _, g in small_corpus]:
            fam = enumerate_valid_placements(g)
            assert len(fam) == count_spanning_trees(g)


class TestIdentifiabilityOracle:
    def test_valid_placement_identifiable(self, island_all_loaded):
        g = island_all_loaded
        pl = Placement((4, 5, 8, 11))
        assert is_valid_placement(g, pl)
        rng = np.random.default_rng(5)
        loads = rng.uniform(0.5, 1.5, size=len(g.load_vertices))
        assert naive_identifiability_oracle(g, pl, loads)

    def test_empty_placement_not_identifiable(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        assert not naive_identifiability_oracle(tri, Placement(()), [1.0, 1.0])

    def test_unsensed_cycle_breaks_identifiability(self, island_all_loaded):
        # four sensors, two of them on the quad through v1, none on the quad
        # through v4: removing the sensors leaves a cycle, and two trees
        # differing on the unsensed quad read identically
        g = island_all_loaded
        pl = Placement((5, 6, 9, 10))
        assert not is_valid_placement(g, pl)
        rng = np.random.default_rng(11)
        loads = rng.uniform(0.5, 1.5, size=len(g.load_vertices))
        assert not naive_identifiability_oracle(g, pl, loads)
        # exhibit a colliding pair explicitly
        trees = list(enumerate_spanning_trees(g))
        obs = {}
        collision = None
        for t in trees:
            key = tuple(np.round(hypothesis_flow(g, t, pl, loads), 12))
            if key in obs:
                collision = (obs[key], t)
                break
            obs[key] = t
        assert collision is not None

    @pytest.mark.parametrize("ids", [(-1, -2, -3, -4), (13,)])
    def test_unknown_sensor_edges_rejected(self, island, ids):
        # a negative id used to read another edge's flows, one past the last an IndexError
        with pytest.raises(UnknownEdgeError):
            naive_identifiability_oracle(island.graph, Placement(ids), island.load_model.means)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loads_rejected(self, island, bad):
        # NaN loads used to make the invalid placement 0 1 2 3 look identifiable
        assert not is_valid_placement(island.graph, Placement((0, 1, 2, 3)))
        with pytest.raises(ModelError, match="finite"):
            naive_identifiability_oracle(island.graph, Placement((0, 1, 2, 3)), np.full(5, bad))

    def test_degenerate_loads_warn(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        with pytest.warns(UserWarning):
            naive_identifiability_oracle(tri, Placement((0,)), [0.0, 1.0])

    def test_matches_validity_on_small_graphs(self, small_corpus):
        # every minimal-size placement, one generic load seed per graph
        for name, g in small_corpus:
            mu = minimum_sensor_count(g)
            if mu == 0:
                continue
            rng = np.random.default_rng(hash(name) % (2**32))
            loads = rng.uniform(0.5, 1.5, size=len(g.load_vertices))
            for combo in itertools.combinations(range(g.n_edges), mu):
                pl = Placement(combo)
                assert naive_identifiability_oracle(g, pl, loads) == is_valid_placement(
                    g, pl
                ), (name, combo)
