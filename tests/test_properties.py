"""Property tests on random connected multigraphs, drawn through Hypothesis.

Examples are derandomized, so every run of the suite checks the same ones,
and no example database is written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtree import (
    ExperimentConfig,
    GridTreeError,
    LoadModel,
    Placement,
    SpanningTree,
    apply_edge_exchange,
    circuit_rank,
    consumption_vector,
    count_spanning_trees,
    detect_cycle_descent,
    detect_deterministic,
    detect_enumeration_oracle,
    detect_fmst,
    detect_map,
    detect_zero_flow_map,
    encode_edge_exchange,
    enumerate_spanning_trees,
    feasible_tree,
    hypothesis_flow,
    hypothesis_flow_distribution,
    local_map_search,
    log_likelihood,
    max_weight_spanning_tree,
    observation_matrix,
    relaxed_flow_solution,
    run_stochastic_sweep,
    tree_edge_flows,
    tree_to_placement,
    zero_flow_transform,
)
from gridtree.detect import HypothesisBank, HypothesisCache, ReducedGaussian, _score, _sensor_support
from conftest import lattice_graph, random_connected_graph, random_forest, with_edges_dropped
from test_prune import _snapshot


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    valid=st.booleans(),
    exact_share=st.sampled_from((0.0, 0.4, 1.0)),
)
def test_private_load_scores_match_the_reference_gaussian(seed, valid, exact_share):
    """The private-load score of every tree agrees with ReducedGaussian on
    the tree's hypothesis flow distribution: finite scores to a relative
    1e-12, and -inf on the same rows.  A tree lacking a sensor-support edge
    of a row scores -inf on it.  One tree's scores are the same bits alone,
    from ``loglik``, in a stack of trees and on blocks of 1, 2, 3 and 1,000
    rows.  Placements are valid (a spanning tree's complement) or any edge
    subset, the empty one included; some loads, or all, are exact."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    if valid:
        placement = tree_to_placement(graph, max_weight_spanning_tree(graph, rng.random(graph.n_edges)))
    else:
        size = int(rng.integers(0, graph.n_edges + 1))
        placement = Placement(rng.permutation(graph.n_edges)[:size].tolist())
    n = len(graph.load_vertices)
    variances = rng.uniform(0.01, 2.0, n) * (rng.random(n) >= exact_share)
    model = LoadModel(graph.load_vertices, rng.uniform(-1.5, 1.5, n), variances)
    trees = list(enumerate_spanning_trees(graph))
    trees = [trees[i] for i in rng.choice(len(trees), size=min(8, len(trees)), replace=False)]
    # per tree, exact readings of two load draws; the same with one reading
    # moved by 100 times the consistency tolerance; readings no tree gives
    draws = model.means + np.sqrt(variances) * rng.standard_normal((2, n))
    V = np.array([observation_matrix(graph, t, placement) @ x for t in trees for x in draws])
    moved = V.copy()
    if V.shape[1]:
        cols = rng.integers(V.shape[1], size=len(V))
        moved[np.arange(len(V)), cols] += 1e-7 * np.maximum(1.0, np.abs(model.means).sum())
    V = np.vstack([V, moved, rng.normal(size=(2, len(placement.edge_ids)))])
    cache = HypothesisCache(graph, placement, model)
    laws = [cache.gaussian(t) for t in trees]
    stacked = _score(laws, V)
    for tree, law, got in zip(trees, laws, stacked):
        ref = ReducedGaussian(*hypothesis_flow_distribution(graph, tree, placement, model)).logpdf_batch(V)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        finite = np.isfinite(ref)
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12 * np.abs(ref[finite]))
        for row, score in zip(V, got):
            if not _sensor_support(placement, model, row) <= tree.edge_ids:
                assert score == float("-inf")
    one, law = trees[0], laws[0]
    alone = _score([law], V)[0]
    assert alone.tobytes() == stacked[0].tobytes()
    assert _score(laws[::-1], V)[-1].tobytes() == alone.tobytes()
    assert np.array([cache.loglik(one, row) for row in V]).tobytes() == alone.tobytes()
    for size in (1, 2, 3, 1000):
        rows = rng.integers(len(V), size=size)
        assert _score([law], V[rows])[0].tobytes() == alone[rows].tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), share=st.floats(0.0, 1.0))
def test_contracted_count_equals_enumeration(seed, share):
    """``count_spanning_trees`` with required edges counts what enumeration
    yields, on random multigraphs with a random required forest (a random
    subset of a random spanning tree); the forest with one more edge, which
    closes a cycle, raises the same error in both.  The counts match again
    on the graph less about 40% of its edges, often disconnected, with a
    random forest of what is left."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    tree = max_weight_spanning_tree(graph, rng.random(graph.n_edges))
    forest = [e for e in sorted(tree.edge_ids) if rng.random() < share]
    assert count_spanning_trees(graph, forest) == len(list(enumerate_spanning_trees(graph, forest)))
    closing = [e for e in range(graph.n_edges) if e not in tree.edge_ids]
    if closing:
        cyclic = sorted(tree.edge_ids) + [int(rng.choice(closing))]
        with pytest.raises(GridTreeError) as enumerated:
            list(enumerate_spanning_trees(graph, cyclic))
        with pytest.raises(GridTreeError) as counted:
            count_spanning_trees(graph, cyclic)
        assert type(counted.value) is type(enumerated.value)
    sparse = with_edges_dropped(rng, graph)
    forest = random_forest(rng, sparse)
    assert count_spanning_trees(sparse, forest) == len(list(enumerate_spanning_trees(sparse, forest)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_relaxed_flow_from_exact_readings_conserves(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    placement = tree_to_placement(graph, max_weight_spanning_tree(graph, rng.random(graph.n_edges)))
    loads = rng.uniform(0.5, 1.5, len(graph.load_vertices))
    true = max_weight_spanning_tree(graph, rng.random(graph.n_edges))
    f = relaxed_flow_solution(graph, placement, loads, hypothesis_flow(graph, true, placement, loads))
    assert np.max(np.abs(graph.incidence @ f - consumption_vector(graph, loads))) < 1e-9
    assert np.allclose(f, tree_edge_flows(graph, true, loads), rtol=0.0, atol=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_zero_flow_transform_solves_its_defining_equations(seed):
    # J is the relaxed flow of zero loads and unit readings: it conserves
    # flow at every vertex and reads each sensor's unit on its own edge
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    cotree = tree_to_placement(graph, max_weight_spanning_tree(graph, rng.random(graph.n_edges)))
    placement = Placement(rng.permutation(cotree.edge_ids).tolist())
    J = zero_flow_transform(graph, placement)
    assert np.array_equal(J[list(placement.edge_ids)], np.eye(len(placement.edge_ids)))
    assert not np.any(graph.incidence @ J)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_edge_exchange_round_trips(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    trees = list(enumerate_spanning_trees(graph))
    for _ in range(4):
        a, b = (trees[int(i)] for i in rng.integers(len(trees), size=2))
        assert apply_edge_exchange(graph, encode_edge_exchange(graph, a, b)) == b


def _problem(seed):
    """A random connected multigraph with a minimal valid placement, forecast
    means, and a random required forest (a few edges of a random tree)."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    placement = tree_to_placement(graph, max_weight_spanning_tree(graph, rng.random(graph.n_edges)))
    means = rng.uniform(0.5, 1.5, len(graph.load_vertices))
    forest = sorted(max_weight_spanning_tree(graph, rng.random(graph.n_edges)).edge_ids)
    required = frozenset(forest[: int(rng.integers(0, 3))])
    return rng, graph, placement, means, required


def _per_call_tree(name, local, graph, placement, model, s, required, cache):
    """The tree the per-call detector picks, or None where it raises."""
    try:
        if name == "map":
            tree = detect_map(graph, placement, model, s, required, cache=cache).tree
        elif name == "fmst":
            tree = detect_fmst(graph, placement, model, s, required).tree
        elif name == "zeroflow":
            tree = detect_zero_flow_map(graph, placement, model, s, required, cache=cache).tree
        elif name == "enum":
            hits = detect_enumeration_oracle(graph, placement, model.means, s, required)
            if len(hits) != 1:
                return None
            tree = hits[0]
        elif name == "deterministic":
            tree = detect_deterministic(graph, placement, model.means, s, required).tree
        else:
            tree = detect_cycle_descent(graph, placement, model, s, cache=cache, required_edges=required).tree
        if local:
            tree = local_map_search(graph, placement, model, s, tree, cache=cache, required_edges=required).tree
    except GridTreeError:
        return None
    return tree


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sigma=st.floats(0.05, 0.5),
    trials=st.sampled_from((3, 12)),
)
def test_sweep_cells_equal_the_per_call_detectors(seed, sigma, trials):
    rng, graph, placement, means, required = _problem(seed)
    model = LoadModel(graph.load_vertices, means, np.ones(len(means)))
    trees = list(enumerate_spanning_trees(graph, required))
    cells = rng.choice(len(trees), size=min(3, len(trees)), replace=False)
    block = ("zeroflow", "enum", "deterministic")
    for local, names in ((False, ("map", "fmst", "cycledescent", *block)), (True, ("map", "fmst", *block))):
        config = ExperimentConfig(
            graph=graph, load_model=model, placements=(placement,), sigmas=(sigma,),
            trials=trials, detectors=names, seed=seed % 1000, restriction=required,
            local_search=local,
        )
        rows = run_stochastic_sweep(config).rows
        noise = config.noise_model(sigma)
        cache = HypothesisCache(graph, placement, noise)
        for t_idx in cells:
            draw = np.random.default_rng((config.seed, 0, 0, int(t_idx)))
            X = noise.means + noise.stddevs * draw.standard_normal((trials, len(means)))
            readings = X @ observation_matrix(graph, trees[t_idx], placement).T
            for k, name in enumerate(names):
                picks = [
                    _per_call_tree(name, local, graph, placement, noise, s, required, cache)
                    for s in readings
                ]
                assert rows[t_idx * len(names) + k].misses == sum(p != trees[t_idx] for p in picks)


@pytest.mark.parametrize("seed, n_rows", [(7, 5), (17, 12), (28, 12)])
def test_bank_rows_without_a_start_stay_misses(seed, n_rows):
    # one block of exact readings and readings with 1e-6 noise: the noisy
    # rows match no zero pattern, so their descent starts are -1
    rng, graph, placement, means, required = _problem(seed)
    model = LoadModel(graph.load_vertices, means, np.full(len(means), 0.04))
    trees = list(enumerate_spanning_trees(graph, required))
    readings = []
    for k in range(n_rows):
        true = trees[int(rng.integers(len(trees)))]
        s = hypothesis_flow(graph, true, placement, means + 0.2 * rng.standard_normal(len(means)))
        readings.append(s + 1e-6 * rng.standard_normal(len(s)) if k % 2 else s)
    cache = HypothesisCache(graph, placement, model)
    bank = HypothesisBank(cache, required, trees, np.array(readings))
    starts = bank.starts()
    assert (starts < 0).any() and (starts >= 0).any()
    for name, local in (
        ("cycledescent", False), ("cycledescent", True), ("zeroflow", True),
        ("zeroflow", False), ("enum", False), ("deterministic", False),
    ):
        picks = bank.detect(name, local_search=local)
        for s, pick in zip(readings, picks.tolist()):
            want = _per_call_tree(name, local, graph, placement, model, s, required, cache)
            assert (None if pick < 0 else bank.trees[pick]) == want


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_block_oracles_equal_their_per_call_forms(seed):
    # readings exact under the forecast means, so that the enumeration oracle
    # and the deterministic decoder find the true tree, and every third row
    # off by 1e-3, so that they find none
    rng, graph, placement, means, required = _problem(seed)
    model = LoadModel(graph.load_vertices, means, np.full(len(means), 0.04))
    trees = list(enumerate_spanning_trees(graph, required))
    truth = rng.integers(len(trees), size=9)
    readings = np.array([hypothesis_flow(graph, trees[t], placement, means) for t in truth])
    readings[::3] += 1e-3 * rng.standard_normal(readings[::3].shape)
    cache = HypothesisCache(graph, placement, model)
    bank = HypothesisBank(cache, required, trees, readings)
    for name in ("zeroflow", "enum", "deterministic"):
        picks = bank.detect(name)
        if name != "zeroflow" and placement.edge_ids:  # with no sensor, every row fits the one tree
            exact = np.arange(9) % 3 > 0
            assert (picks[exact] == truth[exact]).all() and (picks[~exact] < 0).all()
        for s, pick in zip(readings, picks.tolist()):
            want = _per_call_tree(name, False, graph, placement, model, s, required, cache)
            assert (None if pick < 0 else bank.trees[pick]) == want


def _reference_descent(graph, placement, model, s, required):
    """Cycle descent as one loop over Python scores: the unpruned algorithm."""
    cache = HypothesisCache(graph, placement, model)
    mu = max(circuit_rank(graph), 1)
    tree = feasible_tree(graph, s, placement, required_edges=required)
    cur_ll = cache.loglik(tree, s)
    sweeps, converged = 0, False
    while sweeps < 100 * mu:
        sweeps += 1
        improved = False
        for slot in range(mu):
            basis = cache.basis(tree)
            if slot >= len(basis.generators):
                break
            gen, cyc = basis.generators[slot], basis.cycles[slot]
            best_ll, best_tree = cur_ll, None
            for out in sorted(cyc - {gen} - required):
                cand = SpanningTree((tree.edge_ids - {out}) | {gen})
                ll = cache.loglik(cand, s)
                if ll > best_ll:
                    best_ll, best_tree = ll, cand
            if best_tree is not None:
                tree, cur_ll, improved = best_tree, best_ll, True
        if not improved:
            converged = True
            break
    return tree, cur_ll, sweeps, converged


def _reference_local(graph, placement, model, s, seed_tree, required):
    """The local search as one loop over Python scores: the unpruned algorithm."""
    cache = HypothesisCache(graph, placement, model)
    basis = cache.basis(seed_tree)
    best_tree, best_ll, size = seed_tree, cache.loglik(seed_tree, s), 1
    for k, (gen, cyc) in enumerate(zip(basis.generators, basis.cycles)):
        others = set().union(*(c for j, c in enumerate(basis.cycles) if j != k))
        for out in sorted(cyc - {gen} - required - others):
            cand = SpanningTree((seed_tree.edge_ids - {out}) | {gen})
            ll = cache.loglik(cand, s)
            size += 1
            if ll > best_ll:
                best_tree, best_ll = cand, ll
    return best_tree, best_ll, size


def _check_walks(graph, placement, model, s, required, seed_tree):
    """detect_cycle_descent and local_map_search give what the reference loops give."""
    try:
        want = _reference_descent(graph, placement, model, s, required)
    except GridTreeError as exc:
        want = type(exc)
    try:
        r = detect_cycle_descent(graph, placement, model, s, required_edges=required)
        got = (r.tree, r.log_likelihood, r.iterations, r.converged)
    except GridTreeError as exc:
        got = type(exc)
    assert got == want
    r = local_map_search(graph, placement, model, s, seed_tree, required_edges=required)
    assert (r.tree, r.log_likelihood, r.iterations) == _reference_local(
        graph, placement, model, s, seed_tree, required
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), sigma=st.floats(0.05, 0.5))
def test_walks_equal_the_reference_loops(seed, sigma):
    rng, graph, placement, means, required = _problem(seed)
    # some loads modelled as exact, so that many trees, the start among them,
    # score -inf and the walks meet ties at -inf
    exact = rng.random(len(means)) < 0.4
    model = LoadModel(graph.load_vertices, means, np.where(exact, 0.0, sigma**2))
    true = max_weight_spanning_tree(graph, rng.random(graph.n_edges), required)
    s = hypothesis_flow(graph, true, placement, means + sigma * rng.standard_normal(len(means)))
    if rng.random() < 0.25:  # no tree matches exactly
        s = s + 1e-6 * rng.standard_normal(len(s))
    seed_tree = max_weight_spanning_tree(graph, rng.random(graph.n_edges), required)
    _check_walks(graph, placement, model, s, required, seed_tree)


@pytest.mark.parametrize("seed", range(4))
def test_lattice_walks_equal_the_reference_loops(seed, monkeypatch):
    # a per-call walk on the 5x5 lattice numbers more trees than a bank
    # first makes room for, so the bank grows while the walk runs
    grown = []
    reserve = HypothesisBank._reserve

    def reserve_and_check(bank, capacity):
        reserve(bank, capacity)
        grown.append(capacity)
        assert bank.score(0, np.array([-1])) == float("-inf")  # number -1 is no tree

    monkeypatch.setattr(HypothesisBank, "_reserve", reserve_and_check)
    rng = np.random.default_rng(seed)
    graph = lattice_graph(5)
    placement, model, s, _ = _snapshot(graph, rng)
    seed_tree = max_weight_spanning_tree(graph, rng.random(graph.n_edges))
    _check_walks(graph, placement, model, s, frozenset(), seed_tree)
    assert grown
