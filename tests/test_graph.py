import itertools

import numpy as np
import pytest

from gridtree import (
    Graph,
    GridTreeError,
    InfeasibleConstraintError,
    MalformedGraphError,
    SpanningTree,
    UnknownEdgeError,
    build_incidence,
    circuit_rank,
    count_spanning_trees,
    enumerate_spanning_trees,
    is_spanning_tree,
    max_weight_spanning_tree,
)
from gridtree import NotASpanningTreeError
from gridtree.graph import root_tree
from conftest import random_connected_graph, random_forest, with_edges_dropped

EXAMPLE_INCIDENCE = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [-1, 1, 0, 1, 1, 0],
        [0, -1, 1, 0, 0, 0],
        [0, 0, -1, 0, -1, 1],
        [0, 0, 0, -1, 0, -1],
    ]
)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(MalformedGraphError):
            Graph(["a", "b"], [("a", "a")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(MalformedGraphError):
            Graph(["a", "b"], [("a", "z")])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(MalformedGraphError):
            Graph(["a", "a"], [])

    @pytest.mark.parametrize(
        "vertices, root, loads, match",
        [
            ([], None, None, "at least one vertex"),
            (["a", "b"], "z", None, "root 'z' is not a vertex"),
            (["a", "b"], None, ["z"], "load vertex 'z' is not a vertex"),
            (["a", "b", "c"], None, ["b", "b"], "duplicate load vertices"),
        ],
    )
    def test_rejects_bad_vertex_arguments(self, vertices, root, loads, match):
        edges = list(zip(vertices, vertices[1:]))
        with pytest.raises(MalformedGraphError, match=match):
            Graph(vertices, edges, root=root, load_vertices=loads)

    def test_parallel_edges_allowed(self):
        g = Graph(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.n_edges == 2

    def test_default_root_and_load_vertices(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.root == "a"
        assert g.load_vertices == ("b", "c")

    def test_root_cannot_carry_load(self):
        with pytest.raises(MalformedGraphError):
            Graph(["a", "b"], [("a", "b")], load_vertices=["a"])


class TestIncidence:
    def test_example_graph_matrix(self, example_graph):
        assert np.array_equal(build_incidence(example_graph), EXAMPLE_INCIDENCE)

    def test_single_edge_column(self):
        g = Graph(["v0", "v1"], [("v0", "v1")])
        assert np.array_equal(build_incidence(g), np.array([[1], [-1]]))

    def test_reversing_reference_direction_negates_column(self, example_graph):
        edges = list(example_graph.edges)
        edges[2] = (edges[2][1], edges[2][0])
        flipped = Graph(example_graph.vertices, edges, root="v0")
        B1, B2 = build_incidence(example_graph), build_incidence(flipped)
        assert np.array_equal(B2[:, 2], -B1[:, 2])
        mask = np.ones(6, dtype=bool)
        mask[2] = False
        assert np.array_equal(B2[:, mask], B1[:, mask])

    def test_columns_sum_to_zero(self, island):
        assert np.array_equal(build_incidence(island.graph).sum(axis=0), np.zeros(13))

    def test_reduced_incidence_is_cached_read_only_root_deleted(self, example_graph):
        B = example_graph.incidence
        assert B is example_graph.incidence
        assert np.array_equal(B, EXAMPLE_INCIDENCE)
        assert B.dtype == float and not B.flags.writeable
        Br = example_graph.reduced_incidence
        assert Br is example_graph.reduced_incidence
        assert np.array_equal(Br, np.delete(EXAMPLE_INCIDENCE, 0, axis=0))
        assert Br.dtype == float and not Br.flags.writeable


class TestCircuitRank:
    def test_island_fixture(self, island):
        assert circuit_rank(island.graph) == 4

    def test_tree_has_rank_zero(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("b", "d")])
        assert circuit_rank(g) == 0

    def test_triangle(self, small_corpus):
        triangle = dict(small_corpus)["triangle"]
        assert circuit_rank(triangle) == 1


class TestIsSpanningTree:
    def test_triangle_pairs(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        assert is_spanning_tree(tri, [0, 1])
        assert is_spanning_tree(tri, [0, 2])
        assert not is_spanning_tree(tri, [0, 1, 2])

    def test_unknown_edge(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        with pytest.raises(UnknownEdgeError):
            is_spanning_tree(tri, [0, 99])

    def test_complement_of_enumerated_placement(self, island):
        trees = list(enumerate_spanning_trees(island.graph, island.tau))
        cot = set(range(island.graph.n_edges)) - set(trees[7].edge_ids)
        rest = [e for e in range(island.graph.n_edges) if e not in cot]
        assert is_spanning_tree(island.graph, rest)


class TestEnumeration:
    def test_triangle_has_three_trees(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        assert len(list(enumerate_spanning_trees(tri))) == 3

    def test_island_restricted_count_is_44(self, island):
        trees = list(enumerate_spanning_trees(island.graph, island.tau))
        assert len(trees) == 44
        assert all(island.tau <= t.edge_ids for t in trees)

    def test_no_duplicates_and_all_spanning(self, island):
        trees = list(enumerate_spanning_trees(island.graph))
        assert len({t.edge_ids for t in trees}) == len(trees)
        assert all(is_spanning_tree(island.graph, t.edge_ids) for t in trees)

    def test_matches_matrix_tree_count(self, example_graph):
        assert len(list(enumerate_spanning_trees(example_graph))) == count_spanning_trees(
            example_graph
        )

    def test_deterministic_order(self, island):
        a = [t.sorted_ids for t in enumerate_spanning_trees(island.graph, island.tau)]
        b = [t.sorted_ids for t in enumerate_spanning_trees(island.graph, island.tau)]
        assert a == b
        assert a == sorted(a)

    def test_cyclic_requirement_rejected(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        with pytest.raises(InfeasibleConstraintError):
            list(enumerate_spanning_trees(tri, [0, 1, 2]))


class TestCounting:
    def test_k4_is_16(self, small_corpus):
        assert count_spanning_trees(dict(small_corpus)["k4"]) == 16

    def test_triangle_is_3(self, small_corpus):
        assert count_spanning_trees(dict(small_corpus)["triangle"]) == 3

    def test_island_count_matches_enumeration(self, island):
        n = count_spanning_trees(island.graph)
        assert n == len(list(enumerate_spanning_trees(island.graph)))

    def test_disconnected_returns_zero(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert count_spanning_trees(g) == 0
        g = Graph(["r", "a", "b"], [("r", "b")])  # "a" is isolated: the first pivot is 0
        assert count_spanning_trees(g) == 0

    def test_parallel_edges_counted(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "b"), ("a", "b")])
        assert count_spanning_trees(g) == 3

    def test_random_graphs_match_enumeration(self):
        rng = np.random.default_rng(20240 * 7)
        for _ in range(60):
            g = random_connected_graph(rng)
            assert count_spanning_trees(g) == len(list(enumerate_spanning_trees(g)))
        counts = []
        for _ in range(60):  # often disconnected, with a random required forest
            g = with_edges_dropped(rng, random_connected_graph(rng))
            forest = random_forest(rng, g)
            counts.append(count_spanning_trees(g, forest))
            assert counts[-1] == len(list(enumerate_spanning_trees(g, forest)))
        assert 0 in counts and max(counts) > 1

    def test_required_edges_are_contracted(self, island):
        assert count_spanning_trees(island.graph, island.tau) == 44
        tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b")])
        assert count_spanning_trees(tri, [0]) == 2  # 0 with 1 or with 2
        assert count_spanning_trees(tri, [0, 1]) == 1
        assert count_spanning_trees(tri, [1]) == 3  # 1 with 0, with 2 or with 3
        with pytest.raises(InfeasibleConstraintError):  # parallel edges 0 and 3
            count_spanning_trees(tri, [0, 3])
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert count_spanning_trees(g, [0]) == 0  # disconnected

    def test_required_edges_raise_as_enumeration_does(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        with pytest.raises(InfeasibleConstraintError):
            count_spanning_trees(tri, [0, 1, 2])
        for bad in ([7], [-1], [0.5]):
            with pytest.raises(UnknownEdgeError):
                count_spanning_trees(tri, bad)


class TestMaxWeightSpanningTree:
    def test_prefers_heavy_edges(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        t = max_weight_spanning_tree(tri, [5.0, 1.0, 3.0])
        assert t.edge_ids == frozenset({0, 2})

    def test_tie_break_by_edge_id(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        t = max_weight_spanning_tree(tri, [1.0, 1.0, 1.0])
        assert t.edge_ids == frozenset({0, 1})

    def test_required_edges_seeded(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        t = max_weight_spanning_tree(tri, [5.0, 1.0, 3.0], required_edges=[1])
        assert 1 in t.edge_ids

    def test_required_cycle_rejected(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        with pytest.raises(InfeasibleConstraintError):
            max_weight_spanning_tree(tri, [1.0, 1.0, 1.0], required_edges=[0, 1, 2])

    def test_one_weight_per_edge(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        with pytest.raises(GridTreeError, match="one weight per edge"):
            max_weight_spanning_tree(tri, [1.0, 2.0])

    def test_disconnected_graph_rejected(self):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        with pytest.raises(MalformedGraphError):
            max_weight_spanning_tree(g, [1.0, 1.0])


def test_spanning_tree_helpers(island):
    t = next(iter(enumerate_spanning_trees(island.graph, island.tau)))
    assert t.sorted_ids == tuple(sorted(t.edge_ids))
    assert len(t.edge_ids) == 9
    assert set(t.cotree(island.graph)) == set(range(13)) - set(t.edge_ids)
    assert t.label() == " ".join(str(e) for e in t.sorted_ids)


class TestRootTree:
    def test_parents_depths_and_pop_order(self, island):
        g = island.graph
        for tree in list(enumerate_spanning_trees(g))[::37]:
            parent, depth, order = root_tree(g, tree)
            assert order[0] == g.root and sorted(order) == sorted(g.vertices)
            assert parent[g.root] == (None, None) and depth[g.root] == 0
            seen = {g.root}
            for v in order[1:]:
                up, eid = parent[v]
                assert up in seen  # a parent is popped before its children
                assert set(g.edges[eid]) == {up, v}
                assert depth[v] == depth[up] + 1
                seen.add(v)
            assert {parent[v][1] for v in order[1:]} == tree.edge_ids

    def test_rejects_sets_that_are_not_spanning_trees(self, island):
        g = island.graph
        with_cycle = next(
            c for c in itertools.combinations(range(g.n_edges), g.n_vertices - 1)
            if not is_spanning_tree(g, c)
        )
        for edges in (range(g.n_edges), (0, 1), with_cycle):
            with pytest.raises(NotASpanningTreeError):
                root_tree(g, SpanningTree(frozenset(edges)))
