"""Property tests on random connected multigraphs, drawn through Hypothesis.

Examples are derandomized, so every run of the suite checks the same ones,
and no example database is written.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtree import (
    LoadModel,
    apply_edge_exchange,
    detect_map,
    detect_zero_flow_map,
    encode_edge_exchange,
    enumerate_spanning_trees,
    flow_residual,
    hypothesis_flow,
    log_likelihood,
    max_weight_spanning_tree,
    relaxed_flow_solution,
    tree_edge_flows,
    tree_to_placement,
)
from conftest import random_connected_graph


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), sigma=st.floats(0.05, 0.5))
def test_map_is_brute_force_argmax_and_zero_flow_choice(seed, sigma):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    # minimal valid placement: the complement of a random-weight max spanning tree
    placement = tree_to_placement(graph, max_weight_spanning_tree(graph, rng.random(graph.n_edges)))
    means = rng.uniform(0.5, 1.5, len(graph.load_vertices))
    model = LoadModel(graph.load_vertices, means, np.full(len(means), sigma**2))
    trees = list(enumerate_spanning_trees(graph))
    true = trees[int(rng.integers(len(trees)))]
    s = hypothesis_flow(graph, true, placement, means + sigma * rng.standard_normal(len(means)))

    scores = [log_likelihood(graph, tree, placement, model, s) for tree in trees]
    best = int(np.argmax(scores))  # the first of the highest, as detect_map breaks ties
    r = detect_map(graph, placement, model, s)
    assert r.tree == trees[best]
    assert r.log_likelihood == scores[best]
    assert r.iterations == len(trees)
    assert r.pruned == scores.count(float("-inf"))
    assert detect_zero_flow_map(graph, placement, model, s).tree == r.tree


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_relaxed_flow_from_exact_readings_conserves(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    placement = tree_to_placement(graph, max_weight_spanning_tree(graph, rng.random(graph.n_edges)))
    loads = rng.uniform(0.5, 1.5, len(graph.load_vertices))
    true = max_weight_spanning_tree(graph, rng.random(graph.n_edges))
    f = relaxed_flow_solution(graph, placement, loads, hypothesis_flow(graph, true, placement, loads))
    assert flow_residual(graph, f, loads) < 1e-9
    assert np.allclose(f, tree_edge_flows(graph, true, loads), rtol=0.0, atol=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_edge_exchange_round_trips(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    trees = list(enumerate_spanning_trees(graph))
    for _ in range(4):
        a, b = (trees[int(i)] for i in rng.integers(len(trees), size=2))
        assert apply_edge_exchange(graph, encode_edge_exchange(graph, a, b)) == b
