"""Exit criteria for the package, one test per criterion.

Each criterion prints a single PASS line when it holds; the last criterion
re-runs every CSV-producing experiment with the same seeds and checks the
outputs are byte-identical.
"""

import itertools
import time

import numpy as np
import pytest

from gridtree import (
    ExperimentConfig,
    Placement,
    build_island_fixture,
    circuit_rank,
    count_spanning_trees,
    cv_scaling,
    detect_deterministic,
    detect_fmst,
    detect_map,
    detect_zero_flow_map,
    enumerate_spanning_trees,
    enumerate_valid_placements,
    hypothesis_flow,
    is_valid_placement,
    minimum_sensor_count,
    naive_identifiability_oracle,
    relaxed_flow_solution,
    run_deterministic_sweep,
    run_stochastic_sweep,
    evaluate_placements,
    zero_flow_statistic,
    zero_flow_transform,
)
from gridtree.flows import LoadModel
from gridtree.graph import Graph
from conftest import random_connected_graph

# CSV bytes produced by criteria 4-8, re-generated and compared by criterion 9.
_csv_store: dict[str, str] = {}


def _produce(name: str, producer):
    text = producer()
    _csv_store.setdefault(name, text)
    return text


def _report(num: int, label: str):
    print(f"ACCEPTANCE {num} {label}: PASS")


@pytest.fixture(scope="module")
def island():
    return build_island_fixture()


@pytest.fixture(scope="module")
def tau_trees(island):
    return list(enumerate_spanning_trees(island.graph, island.tau))


@pytest.fixture(scope="module")
def tau_family(island):
    return enumerate_valid_placements(island.graph, island.tau)


def test_criterion_1_fixture_cardinalities(island, tau_trees, tau_family):
    start = time.monotonic()
    assert island.graph.n_vertices == 10
    assert island.graph.n_edges == 13
    assert circuit_rank(island.graph) == 4
    assert minimum_sensor_count(island.graph) == 4
    assert len(tau_trees) == 44
    assert len(tau_family) == 44
    assert time.monotonic() - start < 1.0
    _report(1, "fixture-cardinalities")


def test_criterion_2_matrix_tree_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(424242)
    checked = 0
    while checked < 50:
        g = random_connected_graph(rng)
        n_enum = len(list(enumerate_spanning_trees(g)))
        assert count_spanning_trees(g) == n_enum, (g.vertices, g.edges)
        checked += 1
    assert time.monotonic() - start < 30.0
    _report(2, "matrix-tree-vs-enumeration")


def test_criterion_3_placement_validity_is_identifiability(island, small_corpus):
    start = time.monotonic()
    # the identifiability claim quantifies over generic loads at every
    # non-root vertex, so the island topology is tested with all vertices
    # carrying load
    island_loaded = Graph(island.graph.vertices, island.graph.edges, root=island.graph.root)
    graphs = [("island", island_loaded)] + list(small_corpus)
    for name, g in graphs:
        mu = minimum_sensor_count(g)
        if mu == 0:
            continue
        for seed in range(3):
            rng = np.random.default_rng((1003, seed))
            loads = rng.uniform(0.5, 1.5, size=len(g.load_vertices))
            for combo in itertools.combinations(range(g.n_edges), mu):
                pl = Placement(combo)
                assert naive_identifiability_oracle(g, pl, loads) == is_valid_placement(
                    g, pl
                ), (name, combo, seed)
    assert time.monotonic() - start < 120.0
    _report(3, "validity-equals-identifiability")


def _crit4_loads(seed: int) -> np.ndarray:
    rng = np.random.default_rng((1004, seed))
    return rng.uniform(0.6, 1.6, size=5)


def _produce_crit4(island, tau_trees, tau_family) -> str:
    lines = ["placement,tree,load_seed,recovered,max_cotree_flow"]
    for pl in tau_family.placements[:10]:
        cols = list(pl.edge_ids)
        for tree in tau_trees:
            cot = [e for e in range(island.graph.n_edges) if e not in tree.edge_ids]
            for seed in range(3):
                x = _crit4_loads(seed)
                s = hypothesis_flow(island.graph, tree, pl, x)
                r = detect_deterministic(island.graph, pl, x, s, required_edges=island.tau)
                f = relaxed_flow_solution(island.graph, pl, x, s)
                resid = float(np.max(np.abs(f[cot]))) / max(1.0, float(np.max(np.abs(x))))
                lines.append(
                    f"{pl.label()},{tree.label()},{seed},"
                    f"{int(r.tree.edge_ids == tree.edge_ids)},{resid:.3e}"
                )
    return "\n".join(lines) + "\n"


def test_criterion_4_exact_decoding(island, tau_trees, tau_family):
    start = time.monotonic()
    text = _produce("crit4", lambda: _produce_crit4(island, tau_trees, tau_family))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == 44 * 10 * 3
    assert all(r[3] == "1" for r in rows)
    assert all(float(r[4]) < 1e-9 for r in rows)
    assert time.monotonic() - start < 10.0
    _report(4, "relaxed-flow-decoding-1320-of-1320")


def _produce_crit5(island, tau_trees) -> str:
    pl = Placement((6, 7, 10, 12))
    lines = ["scenario,sigma,true_tree,map_tree,zeroflow_tree,identical"]
    sigmas = (0.05, 0.2, 0.5)
    scenario = 0
    while scenario < 200:
        sigma = sigmas[scenario % 3]
        model = island.load_model.with_stddev(sigma)
        rng = np.random.default_rng((1005, scenario))
        true = tau_trees[int(rng.integers(len(tau_trees)))]
        x = model.means + sigma * rng.standard_normal(5)
        s = hypothesis_flow(island.graph, true, pl, x)
        a = detect_map(island.graph, pl, model, s, restriction=island.tau)
        b = detect_zero_flow_map(island.graph, pl, model, s, restriction=island.tau)
        lines.append(
            f"{scenario},{sigma:.12g},{true.label()},{a.tree.label()},"
            f"{b.tree.label()},{int(a.tree.edge_ids == b.tree.edge_ids)}"
        )
        scenario += 1
    return "\n".join(lines) + "\n"


def test_criterion_5_zero_flow_equals_map(island, tau_trees, tau_family):
    start = time.monotonic()
    # transform full-rank check for every hypothesis of several placements
    for pl in tau_family.placements[::9][:5]:
        J = zero_flow_transform(island.graph, pl)
        for tree in tau_trees:
            stat = zero_flow_statistic(island.graph, pl, island.load_model, tree, J=J)
            assert abs(abs(stat.transform_determinant()) - 1.0) < 1e-9
    text = _produce("crit5", lambda: _produce_crit5(island, tau_trees))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == 200
    assert all(r[5] == "1" for r in rows)
    assert time.monotonic() - start < 60.0
    _report(5, "zero-flow-test-matches-exact-search-200-of-200")


def _produce_crit6(island, tau_family) -> str:
    report = run_deterministic_sweep(
        island.graph, tau_family, island.load_model.means, restriction=island.tau
    )
    return report.to_csv()


def test_criterion_6_deterministic_error_rates(island, tau_family):
    start = time.monotonic()
    text = _produce("crit6", lambda: _produce_crit6(island, tau_family))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == 44
    eps = [float(r[2]) for r in rows]
    eps_unsigned = [float(r[3]) for r in rows]
    assert all(e == 0.0 for e in eps)
    assert any(e > 0.0 for e in eps_unsigned)
    assert len(set(eps_unsigned)) > 1  # per-placement variation
    assert time.monotonic() - start < 30.0
    _report(6, "signed-eps-zero-unsigned-eps-positive")


MAP_GRID = tuple(round(0.05 * k, 2) for k in range(1, 11))
CMP_GRID = (0.05, 0.2, 0.5)
CRIT7_PLACEMENT = Placement((6, 7, 10, 12))


def _crit7_config(island, detectors, sigmas, local_search=False, trials=1000):
    return ExperimentConfig(
        graph=island.graph,
        load_model=island.load_model,
        placements=(CRIT7_PLACEMENT,),
        sigmas=sigmas,
        trials=trials,
        detectors=detectors,
        seed=1007,
        restriction=island.tau,
        local_search=local_search,
    )


def _produce_crit7_map(island) -> str:
    return run_stochastic_sweep(_crit7_config(island, ("map",), MAP_GRID)).to_csv()


def _produce_crit7_cmp(island) -> str:
    return run_stochastic_sweep(
        _crit7_config(island, ("map", "fmst", "cycledescent"), CMP_GRID)
    ).to_csv()


def _produce_crit7_local(island) -> str:
    return run_stochastic_sweep(
        _crit7_config(island, ("fmst",), CMP_GRID, local_search=True)
    ).to_csv()


def _produce_crit7_agree(island, tau_trees) -> str:
    from gridtree.detect import HypothesisCache

    sigma = 0.01
    model = island.load_model.with_stddev(sigma)
    pl = CRIT7_PLACEMENT
    cache = HypothesisCache(island.graph, pl, model)
    lines = ["true_tree,trials,agreements"]
    for ti, true in enumerate(tau_trees):
        rng = np.random.default_rng((1007, 99, ti))
        agree = 0
        trials = 25
        for _ in range(trials):
            x = model.means + sigma * rng.standard_normal(5)
            s = hypothesis_flow(island.graph, true, pl, x)
            a = detect_map(island.graph, pl, model, s, restriction=island.tau, cache=cache)
            b = detect_fmst(island.graph, pl, model, s, required_edges=island.tau)
            agree += a.tree.edge_ids == b.tree.edge_ids
        lines.append(f"{true.label()},{trials},{agree}")
    return "\n".join(lines) + "\n"


def _rates(csv_text: str, detector: str) -> dict[float, tuple[float, float]]:
    """sigma -> (aggregate rate, aggregate stderr) for one detector."""
    out = {}
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    for sigma in sorted({float(r[2]) for r in rows}):
        sel = [r for r in rows if r[1] == detector and float(r[2]) == sigma]
        trials = sum(int(r[4]) for r in sel)
        misses = sum(int(r[5]) for r in sel)
        p = misses / trials
        out[sigma] = (p, float(np.sqrt(p * (1 - p) / trials)))
    return out


def test_criterion_7_stochastic_trends(island, tau_trees):
    start = time.monotonic()

    # (a) exact-search misses do not increase as noise shrinks
    map_csv = _produce("crit7_map", lambda: _produce_crit7_map(island))
    rates = _rates(map_csv, "map")
    sigmas = sorted(rates)
    for i, si in enumerate(sigmas):
        for sj in sigmas[i + 1 :]:
            pi, se_i = rates[si]
            pj, se_j = rates[sj]
            assert pi <= pj + 2 * (se_i + se_j), (si, sj, rates)

    # (b) greedy flow tree agrees with the exact search near zero noise
    agree_csv = _produce("crit7_agree", lambda: _produce_crit7_agree(island, tau_trees))
    rows = [line.split(",") for line in agree_csv.splitlines()[1:]]
    total = sum(int(r[1]) for r in rows)
    agree = sum(int(r[2]) for r in rows)
    assert agree / total >= 0.99

    # (c) the exact search dominates both approximations at every noise level
    cmp_csv = _produce("crit7_cmp", lambda: _produce_crit7_cmp(island))
    for sigma in CMP_GRID:
        p_map, se_map = _rates(cmp_csv, "map")[sigma]
        for other in ("fmst", "cycledescent"):
            p_o, se_o = _rates(cmp_csv, other)[sigma]
            assert p_map <= p_o + 2 * (se_map + se_o), (sigma, other)

    # (d) the local neighborhood pass never hurts its seed detector
    local_csv = _produce("crit7_local", lambda: _produce_crit7_local(island))
    for sigma in CMP_GRID:
        p_seed, _ = _rates(cmp_csv, "fmst")[sigma]
        p_local, _ = _rates(local_csv, "fmst+local")[sigma]
        assert p_local <= p_seed, (sigma, p_local, p_seed)

    assert time.monotonic() - start < 600.0
    _report(7, "noise-sweep-trends")


RANKING_MEANS = np.array([300.0, 290.0, 610.0, 150.0, 440.0])  # kW-scale islands


def _ranking_model(island) -> LoadModel:
    sds = np.array([cv_scaling(m) / 100.0 * m for m in RANKING_MEANS])
    return LoadModel(island.load_model.nodes, RANKING_MEANS, sds**2)


def _produce_crit8(island, tau_family) -> str:
    ranking, _ = evaluate_placements(
        island.graph,
        tau_family,
        _ranking_model(island),
        sigma=0.0,  # label only: the model's variances carry the scaling-law noise
        trials=200,
        detector="map",
        seed=1008,
        restriction=island.tau,
        sigma_mode="model",
    )
    return ranking.to_csv()


def test_criterion_8_placement_ranking(island, tau_family):
    start = time.monotonic()
    text = _produce("crit8", lambda: _produce_crit8(island, tau_family))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == 44
    g2s = np.array([float(r[2]) for r in rows])
    assert np.any(g2s < 1e-2), "no placement achieved negligible worst-case error"
    assert np.any(g2s > 1e-2), "no placement exceeded the negligible-error bar"
    g1s = [float(r[1]) for r in rows]
    assert g1s == sorted(g1s, reverse=True)
    assert time.monotonic() - start < 900.0
    _report(8, "placement-ranking-splits")


def test_criterion_9_reproducibility(island, tau_trees, tau_family):
    producers = {
        "crit4": lambda: _produce_crit4(island, tau_trees, tau_family),
        "crit5": lambda: _produce_crit5(island, tau_trees),
        "crit6": lambda: _produce_crit6(island, tau_family),
        "crit7_map": lambda: _produce_crit7_map(island),
        "crit7_agree": lambda: _produce_crit7_agree(island, tau_trees),
        "crit7_cmp": lambda: _produce_crit7_cmp(island),
        "crit7_local": lambda: _produce_crit7_local(island),
        "crit8": lambda: _produce_crit8(island, tau_family),
    }
    for name, producer in producers.items():
        first = _csv_store.get(name) or _produce(name, producer)
        again = producer()
        assert again == first, f"{name} output changed across identical runs"
    _report(9, "byte-identical-reruns")
