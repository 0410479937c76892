import itertools

import pytest

from gridtree import (
    NotASpanningTreeError,
    Placement,
    SpanningTree,
    UnknownEdgeError,
    apply_edge_exchange,
    circuit_rank,
    count_spanning_trees,
    encode_edge_exchange,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    fundamental_cycle_basis,
)

# Spanning trees of the island graph used throughout: the bench tree drops
# co-tree {4, 5, 8, 11}; its exchange partner drops {4, 6, 8, 12}.
BENCH_COTREE = frozenset({4, 5, 8, 11})
PARTNER_COTREE = frozenset({4, 6, 8, 12})


def bench_tree(graph):
    return SpanningTree(frozenset(range(graph.n_edges)) - BENCH_COTREE)


def partner_tree(graph):
    return SpanningTree(frozenset(range(graph.n_edges)) - PARTNER_COTREE)


class TestFundamentalCycleBasis:
    def test_triangle_single_cycle(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        basis = fundamental_cycle_basis(tri, SpanningTree(frozenset({0, 1})))
        assert len(basis) == 1
        assert basis.cycles[0] == frozenset({0, 1, 2})

    def test_island_bench_tree_cycles(self, island):
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        assert basis.generators == (4, 5, 8, 11)
        expected = {
            4: {2, 3, 4, 7},
            5: {0, 1, 5, 6},
            8: {0, 3, 6, 7, 8, 9, 10},
            11: {0, 3, 6, 7, 11, 12},
        }
        for gen, cyc in zip(basis.generators, basis.cycles):
            assert cyc == frozenset(expected[gen])

    def test_island_partner_tree_cycles(self, island):
        basis = fundamental_cycle_basis(island.graph, partner_tree(island.graph))
        expected = {
            4: {2, 3, 4, 7},
            6: {0, 1, 5, 6},
            8: {1, 3, 5, 7, 8, 9, 10},
            12: {1, 3, 5, 7, 11, 12},
        }
        for gen, cyc in zip(basis.generators, basis.cycles):
            assert cyc == frozenset(expected[gen])

    def test_generator_appears_only_in_own_cycle(self, island, small_corpus):
        graphs = [island.graph] + [g for _, g in small_corpus]
        for g in graphs:
            tree = next(iter(enumerate_spanning_trees(g)))
            basis = fundamental_cycle_basis(g, tree)
            assert len(basis) == circuit_rank(g)
            for k, gen in enumerate(basis.generators):
                assert gen in basis.cycles[k]
                for j, cyc in enumerate(basis.cycles):
                    if j != k:
                        assert gen not in cyc

    def test_rejects_non_spanning_tree(self, island):
        g = island.graph
        with pytest.raises(NotASpanningTreeError):
            fundamental_cycle_basis(g, SpanningTree(frozenset({0, 1, 2})))
        tree = bench_tree(g)
        basis = fundamental_cycle_basis(g, tree)
        gen, cycle = basis.generators[0], basis.cycles[0]
        off = min(tree.edge_ids - cycle)  # a tree edge off the first basis cycle
        with pytest.raises(NotASpanningTreeError):  # |V|-1 edges holding a cycle
            fundamental_cycle_basis(g, SpanningTree(tree.edge_ids - {off} | {gen}))
        with pytest.raises(UnknownEdgeError):
            fundamental_cycle_basis(g, SpanningTree(tree.edge_ids - {off} | {99}))


def _sensors_per_cycle(basis, placement):
    """The sensors on each basis cycle, in basis order."""
    return [cyc & placement.edge_set for cyc in basis.cycles]


class TestCycleMeasurementMap:
    """The sensors each fundamental cycle carries, and what a valid placement
    makes of them."""

    def test_partner_cotree_sensors(self, island):
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        by_gen = dict(zip(basis.generators, _sensors_per_cycle(basis, Placement((4, 6, 8, 12)))))
        assert by_gen[4] == frozenset({4})
        assert by_gen[5] == frozenset({6})
        assert by_gen[8] == frozenset({6, 8})
        assert by_gen[11] == frozenset({6, 12})

    def test_empty_placement(self, island):
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        assert all(s == frozenset() for s in _sensors_per_cycle(basis, Placement(())))

    def test_own_cotree_gives_singletons(self, island):
        for tree in list(enumerate_spanning_trees(island.graph, island.tau))[:6]:
            cot = tuple(sorted(tree.cotree(island.graph)))
            basis = fundamental_cycle_basis(island.graph, tree)
            for gen, sensors in zip(basis.generators, _sensors_per_cycle(basis, Placement(cot))):
                assert sensors == frozenset({gen})

    def test_any_cycle_is_xor_of_its_sensor_generators(self, island):
        # with sensors on a valid placement, every fundamental cycle of any
        # other basis decomposes as the XOR of the placement-basis cycles
        # whose generator it covers
        graph = island.graph
        placements = enumerate_valid_placements(graph, island.tau).placements[:5]
        other_trees = list(enumerate_spanning_trees(graph, island.tau))[::9]
        for pl in placements:
            own = fundamental_cycle_basis(
                graph, SpanningTree(frozenset(range(graph.n_edges)) - pl.edge_set)
            )
            lam = dict(zip(own.generators, own.cycles))
            for tree in other_trees:
                basis = fundamental_cycle_basis(graph, tree)
                for cyc, sensors in zip(basis.cycles, _sensors_per_cycle(basis, pl)):
                    acc = frozenset()
                    for s in sensors:
                        acc = acc ^ lam[s]
                    assert acc == cyc

    def test_sensor_sets_independent_for_valid_placements(self, island):
        # the per-cycle sensor sets are linearly independent as GF(2)
        # indicator vectors: all 2^mu symmetric differences are distinct,
        # over every fundamental cycle basis tested
        graph = island.graph
        placements = enumerate_valid_placements(graph, island.tau).placements[:5]
        trees = list(enumerate_spanning_trees(graph, island.tau))[::9]
        for pl in placements:
            for tree in trees:
                basis = fundamental_cycle_basis(graph, tree)
                sensors = _sensors_per_cycle(basis, pl)
                seen = {}
                for bits in itertools.product((0, 1), repeat=len(basis)):
                    u = frozenset()
                    for k, b in enumerate(bits):
                        if b:
                            u = u ^ sensors[k]
                    assert u not in seen, (
                        f"placement {pl.edge_ids}: subsets {seen[u]} and {bits} "
                        f"combine to the same sensor set"
                    )
                    seen[u] = bits

    def test_every_cycle_subset_covers_enough_sensors(self, island):
        # Hall-style bound behind the edge-exchange matching: any N basis
        # cycles jointly carry at least N distinct sensors
        graph = island.graph
        placements = enumerate_valid_placements(graph, island.tau).placements[:5]
        trees = list(enumerate_spanning_trees(graph, island.tau))[::9]
        for pl in placements:
            for tree in trees:
                basis = fundamental_cycle_basis(graph, tree)
                sensors = _sensors_per_cycle(basis, pl)
                idx = range(len(basis))
                for r in range(1, len(basis) + 1):
                    for subset in itertools.combinations(idx, r):
                        union = frozenset().union(*(sensors[k] for k in subset))
                        assert len(union) >= r

    def test_sensor_sets_dependent_for_invalid_placement(self, island):
        # two sensors on the root edges leave two basis cycles with the same
        # sensor set, so their symmetric differences collide
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        sensors = _sensors_per_cycle(basis, Placement((0, 3)))
        seen = set()
        collision = False
        for bits in itertools.product((0, 1), repeat=len(basis)):
            u = frozenset()
            for k, b in enumerate(bits):
                if b:
                    u = u ^ sensors[k]
            if u in seen:
                collision = True
            seen.add(u)
        assert collision


class TestEdgeExchange:
    def test_island_bench_to_partner_moves(self, island):
        src, dst = bench_tree(island.graph), partner_tree(island.graph)
        ex = encode_edge_exchange(island.graph, src, dst)
        moves = {m.into_tree: m for m in ex.moves}
        assert moves[5].out_of_tree == 6 and not moves[5].is_identity
        assert moves[11].out_of_tree == 12 and not moves[11].is_identity
        assert moves[4].is_identity
        assert moves[8].is_identity
        assert apply_edge_exchange(island.graph, ex).edge_ids == dst.edge_ids

    def test_identity_exchange(self, island):
        t = bench_tree(island.graph)
        ex = encode_edge_exchange(island.graph, t, t)
        assert all(m.is_identity for m in ex.moves)
        assert apply_edge_exchange(island.graph, ex).edge_ids == t.edge_ids

    def test_target_must_be_a_spanning_tree(self, island):
        src = bench_tree(island.graph)
        with pytest.raises(NotASpanningTreeError, match="exchange target"):
            encode_edge_exchange(island.graph, src, SpanningTree(frozenset(range(island.graph.n_edges))))

    def test_moves_stay_on_their_carrier_cycle(self, island):
        src, dst = bench_tree(island.graph), partner_tree(island.graph)
        basis = fundamental_cycle_basis(island.graph, src)
        ex = encode_edge_exchange(island.graph, src, dst)
        for m in ex.moves:
            cyc = basis.cycles[m.cycle_index]
            assert m.into_tree in cyc and m.out_of_tree in cyc

    def test_all_pairs_on_k4(self, small_corpus):
        k4 = dict(small_corpus)["k4"]
        trees = list(enumerate_spanning_trees(k4))
        assert len(trees) == 16
        for a in trees:
            for b in trees:
                ex = encode_edge_exchange(k4, a, b)
                assert apply_edge_exchange(k4, ex).edge_ids == b.edge_ids

    def test_all_pairs_on_small_graphs(self, small_corpus):
        for name, g in small_corpus:
            if count_spanning_trees(g) > 200:
                continue
            trees = list(enumerate_spanning_trees(g))
            for a in trees:
                for b in trees:
                    ex = encode_edge_exchange(g, a, b)
                    assert apply_edge_exchange(g, ex).edge_ids == b.edge_ids, (name, a, b)
