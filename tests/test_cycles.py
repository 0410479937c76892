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
    cycle_measurement_map,
    cycle_xor,
    encode_edge_exchange,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    fundamental_cycle_basis,
    is_cycle,
)

# Spanning trees of the island graph used throughout: the bench tree drops
# co-tree {4, 5, 8, 11}; its exchange partner drops {4, 6, 8, 12}.
BENCH_COTREE = frozenset({4, 5, 8, 11})
PARTNER_COTREE = frozenset({4, 6, 8, 12})


def bench_tree(graph):
    return SpanningTree(frozenset(range(graph.n_edges)) - BENCH_COTREE)


def partner_tree(graph):
    return SpanningTree(frozenset(range(graph.n_edges)) - PARTNER_COTREE)


class TestIsCycle:
    def test_triangle(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        assert is_cycle(tri, [0, 1, 2])
        assert not is_cycle(tri, [0, 1])
        assert not is_cycle(tri, [])

    def test_parallel_pair_is_a_two_cycle(self, small_corpus):
        dt = dict(small_corpus)["double_triangle"]
        assert is_cycle(dt, [0, 1])

    def test_disjoint_union_is_not_a_single_cycle(self, island):
        # quad around v1's feeders plus the quad around v4's feeders
        assert is_cycle(island.graph, [0, 1, 5, 6])
        assert is_cycle(island.graph, [2, 3, 4, 7])
        assert not is_cycle(island.graph, [0, 1, 5, 6, 2, 3, 4, 7])


class TestFundamentalCycleBasis:
    def test_triangle_single_cycle(self, small_corpus):
        tri = dict(small_corpus)["triangle"]
        basis = fundamental_cycle_basis(tri, SpanningTree(frozenset({0, 1})))
        assert len(basis) == 1
        assert basis.cycles[0].edges == frozenset({0, 1, 2})

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
            assert cyc.edges == frozenset(expected[gen])

    def test_island_partner_tree_cycles(self, island):
        basis = fundamental_cycle_basis(island.graph, partner_tree(island.graph))
        expected = {
            4: {2, 3, 4, 7},
            6: {0, 1, 5, 6},
            8: {1, 3, 5, 7, 8, 9, 10},
            12: {1, 3, 5, 7, 11, 12},
        }
        for gen, cyc in zip(basis.generators, basis.cycles):
            assert cyc.edges == frozenset(expected[gen])

    def test_generator_appears_only_in_own_cycle(self, island, small_corpus):
        graphs = [island.graph] + [g for _, g in small_corpus]
        for g in graphs:
            tree = next(iter(enumerate_spanning_trees(g)))
            basis = fundamental_cycle_basis(g, tree)
            assert len(basis) == circuit_rank(g)
            for k, gen in enumerate(basis.generators):
                assert gen in basis.cycles[k].edges
                for j, cyc in enumerate(basis.cycles):
                    if j != k:
                        assert gen not in cyc.edges

    def test_rejects_non_spanning_tree(self, island):
        g = island.graph
        with pytest.raises(NotASpanningTreeError):
            fundamental_cycle_basis(g, SpanningTree(frozenset({0, 1, 2})))
        tree = bench_tree(g)
        basis = fundamental_cycle_basis(g, tree)
        gen, cycle = basis.generators[0], basis.cycles[0]
        off = min(tree.edge_ids - cycle.edges)  # a tree edge off the first basis cycle
        with pytest.raises(NotASpanningTreeError):  # |V|-1 edges holding a cycle
            fundamental_cycle_basis(g, SpanningTree(tree.edge_ids - {off} | {gen}))
        with pytest.raises(UnknownEdgeError):
            fundamental_cycle_basis(g, SpanningTree(tree.edge_ids - {off} | {99}))


class TestCycleXor:
    def test_island_textbook_example(self, island):
        # quad through the v1 feeders XOR the hexagon through v3:
        # shared edges {1, 5} drop out, leaving a single six-edge cycle
        a = frozenset({6, 0, 1, 5})
        b = frozenset({5, 1, 2, 4, 12, 11})
        out = cycle_xor(island.graph, a, b)
        assert out.edges == frozenset({6, 0, 2, 4, 12, 11})
        assert out.is_cycle

    def test_self_inverse(self, island):
        a = frozenset({6, 0, 1, 5})
        out = cycle_xor(island.graph, a, a)
        assert out.edges == frozenset()
        assert not out.is_cycle

    def test_identity(self, island):
        a = frozenset({6, 0, 1, 5})
        out = cycle_xor(island.graph, a, frozenset())
        assert out.edges == a
        assert out.is_cycle

    def test_edge_disjoint_cycles_flagged(self, island):
        out = cycle_xor(island.graph, frozenset({0, 1, 5, 6}), frozenset({2, 3, 4, 7}))
        assert out.edges == frozenset({0, 1, 5, 6, 2, 3, 4, 7})
        assert not out.is_cycle

    def test_xor_of_basis_cycles_matches_other_basis(self, island):
        # combining the v1-quad with the hexagon generated by edge 11 yields
        # the hexagon of the partner basis generated by edge 12
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        quad = basis.cycle_of(5)
        hexagon = basis.cycle_of(11)
        out = cycle_xor(island.graph, quad, hexagon)
        partner = fundamental_cycle_basis(island.graph, partner_tree(island.graph))
        assert out.edges == partner.cycle_of(12).edges
        assert out.is_cycle


class TestCycleMeasurementMap:
    def test_partner_cotree_sensors(self, island):
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        kmap = cycle_measurement_map(basis, Placement((4, 6, 8, 12)))
        by_gen = dict(zip(basis.generators, kmap.sensors_per_cycle))
        assert by_gen[4] == frozenset({4})
        assert by_gen[5] == frozenset({6})
        assert by_gen[8] == frozenset({6, 8})
        assert by_gen[11] == frozenset({6, 12})

    def test_empty_placement(self, island):
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        kmap = cycle_measurement_map(basis, Placement(()))
        assert all(s == frozenset() for s in kmap.sensors_per_cycle)

    def test_own_cotree_gives_singletons(self, island):
        for tree in list(enumerate_spanning_trees(island.graph, island.tau))[:6]:
            cot = tuple(sorted(tree.cotree(island.graph)))
            basis = fundamental_cycle_basis(island.graph, tree)
            kmap = cycle_measurement_map(basis, Placement(cot))
            for gen, sensors in zip(basis.generators, kmap.sensors_per_cycle):
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
                kmap = cycle_measurement_map(basis, pl)
                for cyc, sensors in zip(basis.cycles, kmap.sensors_per_cycle):
                    acc = frozenset()
                    for s in sensors:
                        acc = acc ^ lam[s].edges
                    assert acc == cyc.edges

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
                kmap = cycle_measurement_map(basis, pl)
                seen = {}
                for bits in itertools.product((0, 1), repeat=len(basis)):
                    u = frozenset()
                    for k, b in enumerate(bits):
                        if b:
                            u = u ^ kmap[k]
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
                kmap = cycle_measurement_map(basis, pl)
                idx = range(len(basis))
                for r in range(1, len(basis) + 1):
                    for subset in itertools.combinations(idx, r):
                        union = frozenset().union(*(kmap[k] for k in subset))
                        assert len(union) >= r

    def test_sensor_sets_dependent_for_invalid_placement(self, island):
        # two sensors on the root edges leave two basis cycles with the same
        # sensor set, so their symmetric differences collide
        basis = fundamental_cycle_basis(island.graph, bench_tree(island.graph))
        kmap = cycle_measurement_map(basis, Placement((0, 3)))
        seen = set()
        collision = False
        for bits in itertools.product((0, 1), repeat=len(basis)):
            u = frozenset()
            for k, b in enumerate(bits):
                if b:
                    u = u ^ kmap[k]
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

    def test_moves_stay_on_their_carrier_cycle(self, island):
        src, dst = bench_tree(island.graph), partner_tree(island.graph)
        basis = fundamental_cycle_basis(island.graph, src)
        ex = encode_edge_exchange(island.graph, src, dst)
        for m in ex.moves:
            cyc = basis.cycles[m.cycle_index]
            assert m.into_tree in cyc.edges and m.out_of_tree in cyc.edges

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
