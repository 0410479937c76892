"""Tour of the island-graph model: vertices, edges, trees, fundamental cycles
and edge exchanges.

A switched feeder reduces to a small multigraph: load islands and feeders
become vertices, switches become edges, and a virtual root feeds every
feeder.  The network operates as a spanning tree of this graph, and every
admissible switch configuration is a spanning tree containing the root
edges.  Run with:  python demos/01_island_graph_tour.py
"""

from gridtree import (
    SpanningTree,
    apply_edge_exchange,
    build_incidence,
    build_island_fixture,
    circuit_rank,
    count_spanning_trees,
    encode_edge_exchange,
    enumerate_spanning_trees,
    fundamental_cycle_basis,
)

fx = build_island_fixture()
g = fx.graph

print("Island benchmark graph")
print(f"  vertices ({g.n_vertices}):", " ".join(str(v) for v in g.vertices))
print(f"  edges    ({g.n_edges}):")
for eid, (u, v) in enumerate(g.edges):
    tag = "  root feed" if eid in fx.tau else ""
    print(f"    {eid:2d}: {u} -> {v}{tag}")

print("\nIncidence matrix (rows = vertices, +1 tail / -1 head):")
print(build_incidence(g))

mu = circuit_rank(g)
print(f"\nCircuit rank |E| - |V| + 1 = {g.n_edges} - {g.n_vertices} + 1 = {mu}")
print("That is the dimension of the cycle space and the minimum number of")
print("flow sensors needed to tell every operating tree apart.")

total = count_spanning_trees(g)
valid = len(list(enumerate_spanning_trees(g, fx.tau)))
print(f"\nSpanning trees overall: {total} (matrix-tree determinant)")
print(f"Admissible switch configurations (trees containing the root feeds): {valid}")

# One concrete operating tree and its fundamental cycles
tree = SpanningTree(frozenset(range(g.n_edges)) - {4, 5, 8, 11})
basis = fundamental_cycle_basis(g, tree)
print(f"\nOperating tree {tree.label()} leaves out edges 4, 5, 8, 11.")
print("Adding each unused edge back closes exactly one cycle:")
for gen, cyc in zip(basis.generators, basis.cycles):
    print(f"  edge {gen:2d} closes cycle {sorted(cyc)}")

# Moving between two configurations = one edge swap per cycle
other = SpanningTree(frozenset(range(g.n_edges)) - {4, 6, 8, 12})
ex = encode_edge_exchange(g, tree, other)
print(f"\nSwitching plan from {tree.label()}\n                 to {other.label()}:")
for mv in ex.moves:
    if mv.is_identity:
        print(f"  cycle {mv.cycle_index}: no change (edge {mv.into_tree} stays open)")
    else:
        print(f"  cycle {mv.cycle_index}: close edge {mv.into_tree}, open edge {mv.out_of_tree}")
assert apply_edge_exchange(g, ex).edge_ids == other.edge_ids
print("Applying the plan reproduces the target configuration.")
