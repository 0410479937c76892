"""Tests of the benchmark's own code: generators, re-derivation, tracer, smoke runs.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import sys

import numpy as np
import pytest

import gridtree as gt
from gridtree import fileio
from perfbench import inputs, run, workloads
from perfbench.tracer import LAYERS, Tracer


# -- generators ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_lattice_feeder_shape_and_tree_count(n):
    g = inputs.checked_lattice(n)
    assert g.n_vertices == n * n
    assert g.n_edges == 2 * n * (n - 1)
    assert g.root == "r0c0"
    assert len(g.load_vertices) == n * n - 1
    assert gt.count_spanning_trees(g) == inputs.LATTICE_TREES[n]


def test_random_placement_is_minimal_and_valid():
    g = inputs.lattice_feeder(4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pl = inputs.random_placement(g, rng)
        assert gt.is_valid_placement(g, pl)
        assert len(pl) == gt.circuit_rank(g)


def test_uniform_spanning_tree_covers_every_tree_of_the_small_lattice():
    g = inputs.lattice_feeder(3)
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(3000):
        tree = inputs.uniform_spanning_tree(g, rng)
        assert gt.is_spanning_tree(g, tree.edge_ids)
        seen.add(tree.edge_ids)
    assert seen == {t.edge_ids for t in gt.enumerate_spanning_trees(g)}


def test_lattice_snapshot_is_seeded_and_consistent():
    g = inputs.lattice_feeder(4)
    a = inputs.lattice_snapshot(g, np.random.default_rng((5, 2)), 0.2)
    b = inputs.lattice_snapshot(g, np.random.default_rng((5, 2)), 0.2)
    assert a.placement == b.placement and a.true_tree == b.true_tree
    assert np.array_equal(a.observation, b.observation)
    assert np.array_equal(a.model.means, b.model.means)
    # readings come from the true tree: its log-likelihood is finite
    assert np.isfinite(gt.log_likelihood(g, a.true_tree, a.placement, a.model, a.observation))


def test_round_seed_is_stable_and_distinct():
    assert inputs.round_seed(7, 0) == inputs.round_seed(7, 0)
    assert len({inputs.round_seed(s, i) for s in range(5) for i in range(5)}) == 25


def test_island_files_round_trip(tmp_path):
    paths = inputs.write_island_files(str(tmp_path), inputs.RANKING_MEANS)
    fx = gt.build_island_fixture()
    g = fileio.read_graph(paths["graph"])
    assert g.edges == fx.graph.edges and g.root == fx.graph.root
    assert tuple(fileio.read_loads(paths["loads"]).means) == inputs.RANKING_MEANS
    assert fileio.read_placement(paths["placement"]) == inputs.ISLAND_PLACEMENT


# -- RNG-key re-derivation -----------------------------------------------------------------


@pytest.mark.parametrize("local", [False, True])
def test_rederived_misses_match_run_stochastic_sweep(local):
    fx = gt.build_island_fixture()
    trees = list(gt.enumerate_spanning_trees(fx.graph, fx.tau))
    placements = (inputs.ISLAND_PLACEMENT, gt.Placement((5, 7, 9, 11)))
    sigmas = (0.3, 0.6)
    dets = ("fmst",) if local else ("map", "fmst", "cycledescent")
    config = gt.ExperimentConfig(
        graph=fx.graph, load_model=fx.load_model, placements=placements, sigmas=sigmas,
        trials=6, detectors=dets, seed=11, restriction=fx.tau, local_search=local,
    )
    rows = gt.run_stochastic_sweep(config).rows
    by_cell = {}
    k = 0
    for p in range(len(placements)):
        for s in range(len(sigmas)):
            for t in range(len(trees)):
                for d in dets:
                    by_cell[(p, s, t, d)] = rows[k].misses
                    k += 1
    assert k == len(rows)
    bench_name = {"map": "map", "fmst": "local" if local else "fmst", "cycledescent": "descent"}
    total = 0
    for p in range(len(placements)):
        for s, sigma in enumerate(sigmas):
            for t in (0, 17, 43):
                for d in dets:
                    got = workloads.rederive_misses(
                        fx.graph, placements[p], fx.load_model.with_stddev(sigma), 11,
                        (p, s, t), trees, 6, bench_name[d], fx.tau,
                    )
                    assert got == by_cell[(p, s, t, d)], (p, s, t, d)
                    total += got
    assert total > 0  # the comparison saw misses, not only zeros


# -- tracer -----------------------------------------------------------------------------


def _bindings():
    mods = {n: m for n, m in sys.modules.items() if n == "gridtree" or n.startswith("gridtree.")}
    snap = {(n, a): v for n, m in mods.items() for a, v in vars(m).items() if callable(v)}
    for cls in (gt.detect.ReducedGaussian, gt.detect.HypothesisCache, gt.simulate.ErrorReport):
        snap.update({(cls.__name__, a): v for a, v in vars(cls).items()})
    return snap


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = gt.flows.hypothesis_flow_distribution
    tracer = Tracer()
    with tracer:
        assert gt.flows.hypothesis_flow_distribution is not original
        assert gt.detect.hypothesis_flow_distribution is gt.flows.hypothesis_flow_distribution
        assert gt.hypothesis_flow_distribution is gt.flows.hypothesis_flow_distribution
        assert gt.detect.ReducedGaussian.__init__ is not before[("ReducedGaussian", "__init__")]
    assert _bindings() == before
    with tracer:  # a tracer can be installed again and restores again
        pass
    assert _bindings() == before


def test_tracer_counts_generator_steps_and_self_time():
    fx = gt.build_island_fixture()
    model = fx.load_model.with_stddev(0.2)
    trees = list(gt.enumerate_spanning_trees(fx.graph, fx.tau))
    obs = gt.hypothesis_flow(fx.graph, trees[3], inputs.ISLAND_PLACEMENT, model.means)
    tracer = Tracer()
    with tracer:
        tracer.new_run()
        result = gt.detect_map(fx.graph, inputs.ISLAND_PLACEMENT, model, obs, fx.tau)
    assert result.tree == trees[3]
    m = tracer.layer_metrics()
    assert m["graph.trees_enumerated"] == 44
    assert m["detect.gaussian_builds"] == 44
    assert m["detect.logpdf_calls"] == 44
    assert 0 < m["detect.feasible_share"] <= 1
    a = tracer.arrays()
    assert np.all(a["self"] >= -1e-9) and np.all(a["run"] == 0)
    # self times partition the root spans' time
    roots = a["parent"] < 0
    assert np.isclose(a["self"].sum(), a["duration"][roots].sum())
    assert set(m) >= {f"{layer}.self_s" for layer in LAYERS}


# -- smoke runs ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_unit_of_each_workload_passes_its_checks(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    wl = cls(str(tmp_path), 3)
    calls = wl.unit(0)
    assert {c.detector for c in calls} == set(workloads.DETECTORS)
    assert all(c.ok and 0 <= c.misses <= c.detections for c in calls)
    items, problems = wl.check()
    assert items > 0 and problems == []


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads.IslandSweep, "base_units", 1)
    monkeypatch.setattr(workloads.IslandSweep, "SIGMAS", (0.2,))
    assert run.main(["--workload", "island_sweep", "--seed", "4", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(f"{run.ROOT}/BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "record" in json.loads(lines[-2])
